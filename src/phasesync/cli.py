"""Config-driven command-line front end.

    phasesync <mode> --config <path> [--preset <name>] [--set key=value ...] [--out <dir>]

Modes: finite, kinetic, roots, kc, classify, sweep. Each run writes a
manifest (the fully resolved config, reloadable with --config), a
time-series CSV, and a summary record. Exit codes: 0 success, 1 numerical
abort, 2 config error, 3 horizon reached without convergence.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .classify import classify_finite, classify_measure
from .core import OscillatorEnsemble
from .freqdist import Dirac, Discrete, TruncatedGaussian, Uniform
from .integrate import NonFiniteStateError, SimConfig, seeded_ensemble, simulate
from .kinetic import (
    AtomList,
    ProductSpec,
    TruncatedGaussianArc,
    UniformArc,
    discretize,
    kinetic_simulate,
)
from .stationary import BracketNotFoundError, critical_coupling, self_consistency_roots

MODES = ("finite", "kinetic", "roots", "kc", "classify", "sweep")
PRESETS = ("three-osc", "two-antipodal", "uniform-arc", "kuramoto-uniform-g")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_HORIZON = 3

DEFAULT_M = 1024  # phase nodes of a discretised density, in kinetic and sweep

SERIES_HEADER = ["t", "R", "phi", "U", "mean_phase", "H", "entropy_change"]

# every config key, by section, as documented in docs/config.md
SCHEMA = {
    "sim": {"dt", "t_max", "record_every", "stationarity_tol"},
    "model": {
        "coupling", "kind", "three_osc_delta0", "phases", "freqs", "n", "seed",
        "freq_halfwidth", "zero_mean_freqs", "phase_spec", "phase_center",
        "phase_halfwidth", "phase_sigma", "atoms", "m", "n_freq", "freq_dist",
        "freq_omega0", "freq_center", "freq_halfwidth_g", "freq_omegas",
        "freq_probs", "freq_mean", "freq_sigma", "freq_cut",
    },
    "classify": {"angle_tol", "mass_tol"},
    "roots": {"grid"},
    "kc": {"tol"},
    "sweep": {"k_min", "k_max", "k_steps"},
    "run": {"out"},
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config loading


def _load_ini(path: Path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path) as fh:
        parser.read_file(fh)
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    return {sec: dict(parser.items(sec)) for sec in parser.sections()}


def load_config(path: str) -> dict:
    """Load a config: INI file, or a previously emitted JSON manifest."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    if p.suffix == ".json":
        with open(p) as fh:
            manifest = json.load(fh)
        cfg = manifest.get("config")
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path} is not a phasesync manifest")
        return {sec: dict(kv) for sec, kv in cfg.items()}
    return _load_ini(p)


def load_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    ref = resources.files("phasesync").joinpath(f"presets/{name}.ini")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(ref.read_text())
    return {sec: dict(parser.items(sec)) for sec in parser.sections()}


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        if "." not in key:
            raise ConfigError(f"--set key must be section.key, got {key!r}")
        section, name = key.split(".", 1)
        cfg.setdefault(section, {})[name.strip()] = value.strip()
    return cfg


def check_keys(cfg: dict):
    """Reject any section or key that SCHEMA does not list."""
    for section, kv in cfg.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(kv) - SCHEMA[section])
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")


def _get(cfg: dict, section: str, key: str, default=None, cast=str):
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    try:
        if cast is bool:
            return str(raw).strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _floats(raw: str) -> np.ndarray:
    return np.array([float(x) for x in str(raw).replace(";", ",").split(",") if x.strip() != ""])


# ---------------------------------------------------------------------------
# Model construction


def build_sim_config(cfg: dict) -> SimConfig:
    return SimConfig(
        dt=_get(cfg, "sim", "dt", 0.01, float),
        t_max=_get(cfg, "sim", "t_max", 100.0, float),
        record_every=_get(cfg, "sim", "record_every", 1, int),
        stationarity_tol=_get(cfg, "sim", "stationarity_tol", 1e-9, float),
    )


def build_ensemble(cfg: dict) -> OscillatorEnsemble:
    coupling = _get(cfg, "model", "coupling", 1.0, float)
    model = cfg.get("model", {})
    if "three_osc_delta0" in model:
        if "phases" in model:
            raise ConfigError("[model] three_osc_delta0 and phases are mutually exclusive")
        d0 = float(model["three_osc_delta0"])
        return OscillatorEnsemble([d0, -d0, np.pi], np.zeros(3), coupling)
    if "phases" in model:
        phases = _floats(model["phases"])
        freqs = _floats(model["freqs"]) if "freqs" in model else np.zeros(phases.size)
        return OscillatorEnsemble(phases, freqs, coupling)
    n = _get(cfg, "model", "n", None, int)
    return seeded_ensemble(
        n,
        coupling=coupling,
        seed=_get(cfg, "model", "seed", 0, int),
        freq_halfwidth=_get(cfg, "model", "freq_halfwidth", 0.0, float),
        zero_mean=_get(cfg, "model", "zero_mean_freqs", False, bool),
    )


def build_freq_dist(cfg: dict):
    kind = _get(cfg, "model", "freq_dist", "dirac").strip().lower()
    if kind == "dirac":
        return Dirac(_get(cfg, "model", "freq_omega0", 0.0, float))
    if kind == "uniform":
        return Uniform(
            center=_get(cfg, "model", "freq_center", 0.0, float),
            halfwidth=_get(cfg, "model", "freq_halfwidth_g", None, float),
        )
    if kind == "discrete":
        omegas = _floats(_get(cfg, "model", "freq_omegas"))
        probs = _floats(_get(cfg, "model", "freq_probs"))
        return Discrete(tuple(omegas), tuple(probs))
    if kind == "tgauss":
        return TruncatedGaussian(
            mean=_get(cfg, "model", "freq_mean", 0.0, float),
            sigma=_get(cfg, "model", "freq_sigma", None, float),
            cut=_get(cfg, "model", "freq_cut", None, float),
        )
    raise ConfigError(f"unknown freq_dist {kind!r}")


def build_density_spec(cfg: dict):
    kind = _get(cfg, "model", "phase_spec", "uniform_arc").strip().lower()
    if kind == "atoms":
        triples = [t for t in _get(cfg, "model", "atoms").split(";") if t.strip()]
        w, th, om = [], [], []
        for t in triples:
            parts = [float(x) for x in t.split(":")]
            if len(parts) == 2:
                parts.append(0.0)
            w.append(parts[0])
            th.append(parts[1])
            om.append(parts[2])
        return AtomList(tuple(w), tuple(th), tuple(om))
    center = _get(cfg, "model", "phase_center", 0.0, float)
    halfwidth = _get(cfg, "model", "phase_halfwidth", np.pi, float)
    if kind == "uniform_arc":
        phase = UniformArc(center, halfwidth)
    elif kind == "tgauss_arc":
        phase = TruncatedGaussianArc(center, _get(cfg, "model", "phase_sigma", None, float), halfwidth)
    else:
        raise ConfigError(f"unknown phase_spec {kind!r}")
    if _get(cfg, "model", "freq_dist", "none").strip().lower() != "none":
        return ProductSpec(phase, build_freq_dist(cfg), n_freq=_get(cfg, "model", "n_freq", 64, int))
    return phase


# ---------------------------------------------------------------------------
# Output writers


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def write_manifest(out: Path, mode: str, cfg: dict):
    manifest = {
        "artifact": "phasesync",
        "version": __version__,
        "mode": mode,
        "seed": cfg.get("model", {}).get("seed", "0"),
        "config": cfg,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_series(out: Path, rows: list[dict]):
    with open(out / "series.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_HEADER)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in SERIES_HEADER])


def write_summary(out: Path, summary: dict):
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _class_dict(cls) -> dict:
    return {
        "kind": cls.kind,
        "phi_star": cls.phi_star,
        "n_at_phi": cls.n_at_phi,
        "k": cls.k,
        "c1": cls.c1,
        "c2": cls.c2,
    }


# ---------------------------------------------------------------------------
# Mode runners


def _write_run(out: Path, mode: str, traj, columns: dict, cls) -> int:
    """series.csv and summary.json of a simulation run; returns its exit code.

    columns maps the mode's own series.csv columns to their series.
    """
    columns = {"t": traj.times, "R": traj.r_series, "phi": traj.phi_series,
               "mean_phase": traj.mean_phase_series, **columns}
    write_series(out, [{c: v[i] for c, v in columns.items()} for i in range(len(traj.times))])
    write_summary(
        out,
        {
            "mode": mode,
            "final_r": traj.r_series[-1],
            "final_phi": traj.phi_series[-1],
            "stopped_on": traj.stopped_on,
            "t_final": traj.times[-1],
            "class": _class_dict(cls),
        },
    )
    return EXIT_OK if traj.stopped_on == "stationary" else EXIT_HORIZON


def run_finite(cfg: dict, out: Path) -> int:
    ens = build_ensemble(cfg)
    sim_cfg = build_sim_config(cfg)
    traj = simulate(ens, sim_cfg)
    cls = classify_finite(traj.final, _get(cfg, "classify", "angle_tol", 1e-3, float))
    return _write_run(out, "finite", traj, {"U": traj.u_series}, cls)


def run_kinetic(cfg: dict, out: Path) -> int:
    spec = build_density_spec(cfg)
    meas = discretize(
        spec,
        m=_get(cfg, "model", "m", DEFAULT_M, int),
        coupling=_get(cfg, "model", "coupling", 1.0, float),
    )
    sim_cfg = build_sim_config(cfg)
    traj = kinetic_simulate(meas, sim_cfg)
    cls = classify_measure(
        traj.final,
        _get(cfg, "classify", "angle_tol", 1e-3, float),
        _get(cfg, "classify", "mass_tol", 1e-3, float),
    )
    columns = {"H": traj.h_series, "entropy_change": traj.entropy_series}
    return _write_run(out, "kinetic", traj, columns, cls)


def run_roots(cfg: dict, out: Path) -> int:
    g = build_freq_dist(cfg)
    k = _get(cfg, "model", "coupling", None, float)
    result = self_consistency_roots(g, k, grid=_get(cfg, "roots", "grid", 4096, int))
    write_series(out, [])
    write_summary(
        out,
        {
            "mode": "roots",
            "coupling": k,
            "roots": result.roots,
            "largest": result.largest,
            "k_supercritical": result.k_supercritical,
        },
    )
    return EXIT_OK


def run_kc(cfg: dict, out: Path) -> int:
    g = build_freq_dist(cfg)
    kc = critical_coupling(g, kc_tol=_get(cfg, "kc", "tol", 1e-6, float))
    write_series(out, [])
    write_summary(out, {"mode": "kc", "k_c": kc})
    return EXIT_OK


def run_classify(cfg: dict, out: Path) -> int:
    ens = build_ensemble(cfg)
    cls = classify_finite(ens, _get(cfg, "classify", "angle_tol", 1e-3, float))
    write_series(out, [])
    write_summary(out, {"mode": "classify", "class": _class_dict(cls)})
    return EXIT_OK


def run_sweep(cfg: dict, out: Path) -> int:
    k_min = _get(cfg, "sweep", "k_min", None, float)
    k_max = _get(cfg, "sweep", "k_max", None, float)
    k_steps = _get(cfg, "sweep", "k_steps", 11, int)
    kind = _get(cfg, "model", "kind", "kinetic")
    sim_cfg = build_sim_config(cfg)
    ks = np.linspace(k_min, k_max, k_steps)
    points = []
    for k in ks:
        if kind == "finite":
            ens = build_ensemble(cfg)
            traj = simulate(OscillatorEnsemble(ens.phases, ens.freqs, float(k)), sim_cfg)
        else:
            spec = build_density_spec(cfg)
            meas = discretize(spec, m=_get(cfg, "model", "m", DEFAULT_M, int), coupling=float(k))
            traj = kinetic_simulate(meas, sim_cfg)
        points.append({"K": float(k), "final_R": float(traj.r_series[-1]),
                       "stopped_on": traj.stopped_on})
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["K", "final_R"])
        for p in points:
            writer.writerow([_fmt(p["K"]), _fmt(p["final_R"])])
    write_series(out, [])
    write_summary(out, {"mode": "sweep", "points": points})
    return EXIT_OK


RUNNERS = {
    "finite": run_finite,
    "kinetic": run_kinetic,
    "roots": run_roots,
    "kc": run_kc,
    "classify": run_classify,
    "sweep": run_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="phasesync", description=__doc__)
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", help="INI config file or emitted manifest.json")
    parser.add_argument("--preset", choices=PRESETS, help="built-in config to start from")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override a config key")
    parser.add_argument("--out", help="output directory (default $PHASESYNC_OUT or ./phasesync-out)")
    args = parser.parse_args(argv)

    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.preset:
            cfg = {}
        else:
            raise ConfigError("one of --config or --preset is required")
        if args.preset:
            preset = load_preset(args.preset)
            for sec, kv in cfg.items():
                preset.setdefault(sec, {}).update(kv)
            cfg = preset
        cfg = apply_overrides(cfg, args.overrides)
        check_keys(cfg)
        out_dir = args.out or cfg.get("run", {}).get("out") \
            or os.environ.get("PHASESYNC_OUT") or "phasesync-out"
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # the output path stays out of the manifest so a rerun from the
        # manifest into a fresh directory reproduces every file bitwise
        write_manifest(out, args.mode, cfg)
        return RUNNERS[args.mode](cfg, out)
    except ValueError as exc:
        # ConfigError, and every input a constructor or solver rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteStateError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BracketNotFoundError as exc:
        print(f"no supercritical bracket: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

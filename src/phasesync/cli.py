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
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .classify import ANGLE_TOL, MASS_TOL, check_tolerances, classify_finite, classify_measure
from .core import OscillatorEnsemble
from .freqdist import Dirac, Discrete, TruncatedGaussian, Uniform
from .integrate import NonFiniteStateError, SimConfig, seeded_ensemble, simulate
from .kinetic import AtomList, ProductSpec, discretize, kinetic_simulate
from .stationary import critical_coupling, self_consistency_roots

PRESETS = ("three-osc", "two-antipodal", "uniform-arc", "kuramoto-uniform-g")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_HORIZON = 3

SERIES_HEADER = ["t", "R", "phi", "U", "mean_phase", "H", "entropy_change"]

# Most particle-steps to t_max a run may take, summed over a sweep's points: ~470 x the largest preset run
MAX_PARTICLE_STEPS = 1e11
# Most bytes a run or each sweep point may keep in its recorded rows: ROW_BYTES of Python objects a row (a
# tracemalloc peak of 350 for a kinetic run, 472 besides the phases for a finite one), and a finite run's 8N
# bytes of phases. N = 1000 with a row at each of 1e8 steps, at the particle-step bound, would keep 850 GB
ROW_BYTES, MAX_KEPT_BYTES = 500, 2e10


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config: the table of every key's parser and default, loading, resolving


def _default(owner, name: str):
    """The library's own default of parameter `name` of a function or class."""
    return inspect.signature(owner).parameters[name].default


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _choice(*words):
    def parse(raw) -> str:
        word = str(raw).strip().lower()
        if word not in words:
            raise ValueError(f"not one of {', '.join(words)}")
        return word
    return parse


def _bool(raw) -> bool:
    return _BOOLS[_choice(*_BOOLS)(raw)]


def _floats(raw) -> list:
    """"a, b; c" (or an already parsed list) as a list of floats."""
    items = raw if isinstance(raw, list) else str(raw).replace(";", ",").split(",")
    return [float(x) for x in items if str(x).strip()]


def _atoms(raw) -> list:
    """"w:theta[:omega]; ..." (or an already parsed list) as [w, theta, omega]
    triples; omega defaults to 0."""
    items = raw if isinstance(raw, list) else [t.split(":") for t in str(raw).split(";") if t.strip()]
    if any(len(t) not in (2, 3) for t in items):
        raise ValueError("each atom is w:theta or w:theta:omega")
    return [[float(x) for x in t] + [0.0] * (3 - len(t)) for t in items]


# SCHEMA[section][key] = (parser, default), as documented in docs/config.md.
# A None default leaves the key unset unless given; the parser also accepts
# its own output, so resolving a resolved config changes nothing.
SCHEMA = {
    "sim": {f.name: (type(f.default), f.default) for f in dataclasses.fields(SimConfig)},
    "model": {
        "coupling": (float, _default(OscillatorEnsemble, "coupling")),
        "kind": (_choice("kinetic", "finite"), "kinetic"),
        "three_osc_delta0": (float, None),
        "phases": (_floats, None),
        "freqs": (_floats, None),
        "n": (int, None),
        "seed": (int, _default(seeded_ensemble, "seed")),
        "freq_halfwidth": (float, _default(seeded_ensemble, "freq_halfwidth")),
        "zero_mean_freqs": (_bool, _default(seeded_ensemble, "zero_mean")),
        "phase_spec": (_choice("uniform_arc", "tgauss_arc", "atoms"), "uniform_arc"),
        "phase_center": (float, 0.0),
        "phase_halfwidth": (float, math.pi),
        "phase_sigma": (float, None),
        "atoms": (_atoms, None),
        "m": (int, _default(discretize, "m")),
        "n_freq": (int, _default(ProductSpec, "n_freq")),
        "freq_dist": (_choice("dirac", "uniform", "discrete", "tgauss", "none"), "dirac"),
        "freq_omega0": (float, _default(Dirac, "omega0")),
        "freq_center": (float, _default(Uniform, "center")),
        "freq_halfwidth_g": (float, None),
        "freq_omegas": (_floats, None),
        "freq_probs": (_floats, None),
        "freq_mean": (float, _default(TruncatedGaussian, "mean")),
        "freq_sigma": (float, None),
        "freq_cut": (float, None),
    },
    "classify": {"angle_tol": (float, ANGLE_TOL), "mass_tol": (float, MASS_TOL)},
    "sweep": {"k_min": (float, None), "k_max": (float, None), "k_steps": (int, 11)},
    "run": {"out": (str, None)},
}

def resolve(cfg: dict) -> dict:
    """Every SCHEMA key of every section, parsed, with defaults filled in.

    Unknown sections and keys, and values their parser rejects, raise
    ConfigError.
    """
    resolved = {section: {} for section in SCHEMA}
    for section, kv in cfg.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(kv) - set(SCHEMA[section]))
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")
    for section, keys in SCHEMA.items():
        for key, (parse, default) in keys.items():
            raw = cfg.get(section, {}).get(key)
            try:
                resolved[section][key] = default if raw is None else parse(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return resolved


def _need(section: dict, key: str):
    """A key of a resolved section that has no default and must be given."""
    if section[key] is None:
        raise ConfigError(f"missing required key [{next(s for s in SCHEMA if key in SCHEMA[s])}] {key}")
    return section[key]


def _parse_ini(text: str, source: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    return {sec: dict(parser.items(sec)) for sec in parser.sections()}


def load_config(path: str) -> dict:
    """Load a config: INI file, or a previously emitted JSON manifest."""
    try:
        text = Path(path).read_text()
    except OSError as exc:  # a missing file, a directory, ...
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    if Path(path).suffix == ".json":
        doc = json.loads(text)
        cfg = doc.get("config") if isinstance(doc, dict) else None
        if not (isinstance(cfg, dict) and all(isinstance(kv, dict) for kv in cfg.values())):
            raise ConfigError(f"{path} is not a phasesync manifest")
        return cfg
    return _parse_ini(text, path)


def load_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    ref = resources.files("phasesync").joinpath(f"presets/{name}.ini")
    return _parse_ini(ref.read_text(), f"preset {name}")


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


# ---------------------------------------------------------------------------
# Model construction; each builder accepts a raw or a resolved config


def build_sim_config(cfg: dict) -> SimConfig:
    return SimConfig(**resolve(cfg)["sim"])


def build_ensemble(cfg: dict) -> OscillatorEnsemble:
    model = resolve(cfg)["model"]
    d0, phases = model["three_osc_delta0"], model["phases"]
    if d0 is not None:
        if phases is not None:
            raise ConfigError("[model] three_osc_delta0 and phases are mutually exclusive")
        return OscillatorEnsemble([d0, -d0, np.pi], np.zeros(3), model["coupling"])
    if phases is not None:
        freqs = np.zeros(len(phases)) if model["freqs"] is None else model["freqs"]
        return OscillatorEnsemble(phases, freqs, model["coupling"])
    return seeded_ensemble(
        _need(model, "n"),
        coupling=model["coupling"],
        seed=model["seed"],
        freq_halfwidth=model["freq_halfwidth"],
        zero_mean=model["zero_mean_freqs"],
    )


def build_freq_dist(cfg: dict):
    model = resolve(cfg)["model"]
    if model["freq_dist"] == "dirac":
        return Dirac(model["freq_omega0"])
    if model["freq_dist"] == "uniform":
        return Uniform(model["freq_center"], _need(model, "freq_halfwidth_g"))
    if model["freq_dist"] == "discrete":
        return Discrete(_need(model, "freq_omegas"), _need(model, "freq_probs"))
    if model["freq_dist"] == "tgauss":
        return TruncatedGaussian(model["freq_mean"], _need(model, "freq_sigma"),
                                 _need(model, "freq_cut"))
    raise ConfigError("[model] freq_dist = none names no frequency law")


def build_density_spec(cfg: dict):
    model = resolve(cfg)["model"]
    if model["phase_spec"] == "atoms":
        atoms = _need(model, "atoms")
        return AtomList(*(tuple(a[i] for a in atoms) for i in range(3)))
    if model["phase_spec"] == "uniform_arc":
        phase = Uniform(model["phase_center"], model["phase_halfwidth"])
    else:
        phase = TruncatedGaussian(model["phase_center"], _need(model, "phase_sigma"), model["phase_halfwidth"])
    if model["freq_dist"] == "none":
        return phase
    return ProductSpec(phase, build_freq_dist(cfg), n_freq=model["n_freq"])


# ---------------------------------------------------------------------------
# Output writers


def write_csv(path: Path, header: list[str], rows: list[dict]):
    """One row per dict, the header's columns only, floats as %.17g."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else format(float(row[c]), ".17g") for c in header])


def write_json(path: Path, record: dict):
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Mode runners: each takes a resolved config and returns the series.csv rows
# and the summary.json record of its run; a runner that classifies checks the
# [classify] tolerances before it builds the model


def _initial(cfg: dict, kind: str, k: float):
    """The start state of the config's model of this kind ("finite" or
    "kinetic") at coupling k, and the function that runs it: the one model
    build of every simulating mode."""
    if kind == "finite":
        return build_ensemble({**cfg, "model": {**cfg["model"], "coupling": k}}), simulate
    return discretize(build_density_spec(cfg), m=cfg["model"]["m"], coupling=k), kinetic_simulate


def _affordable(cfg: dict, kind: str, sim: SimConfig, points: int = 1) -> SimConfig:
    """sim, once `points` runs to its t_max of the config's model of this kind ("finite" or "kinetic") take at
    most MAX_PARTICLE_STEPS and each keeps at most MAX_KEPT_BYTES in its recorded rows. The size comes from the
    config alone: a finite model's N, or the grid discretize allocates before it drops zero-mass nodes."""
    model, finite = cfg["model"], kind == "finite"
    if finite:
        n = 3 if model["three_osc_delta0"] is not None else model["n"] if model["phases"] is None else len(model["phases"])
    elif model["n"] is not None:
        raise ConfigError("[model] n is the size of a finite model; a kinetic one has m x n_freq nodes")
    elif model["phase_spec"] == "atoms":
        n = len(model["atoms"] or ())
    else:  # m phase cells times the frequency law's nodes
        nodes = {"discrete": len(model["freq_omegas"] or ()), "uniform": model["n_freq"], "tgauss": model["n_freq"]}
        n = model["m"] * nodes.get(model["freq_dist"], 1)
    n = max(n or 1, 1)  # an unset or bad count is the builders' to refuse
    cost = points * n * sim.n_steps
    if cost > MAX_PARTICLE_STEPS:
        raise ConfigError(f"the run would take {cost:.3g} particle-steps, over the bound of {MAX_PARTICLE_STEPS:.0e}")
    rows = -(-sim.n_steps // sim.record_every) + 1  # a row per record_every steps, and the last
    kept = rows * (ROW_BYTES + (8 * n if finite else 0))
    if kept > MAX_KEPT_BYTES:
        raise ConfigError(f"the run would keep {rows:.3g} recorded rows ({kept / 1e9:.3g} GB), "
                          f"over the bound of {MAX_KEPT_BYTES / 1e9:.3g} GB")
    return sim


def run_simulation(kind: str, cfg: dict, out: Path):
    """The finite or the kinetic mode: the model of this kind run at its
    coupling and its final state classified; series.csv holds the kind's own
    columns besides the shared ones."""
    check_tolerances(**cfg["classify"])
    sim = _affordable(cfg, kind, build_sim_config(cfg))
    state, run = _initial(cfg, kind, cfg["model"]["coupling"])
    traj = run(state, sim)
    if kind == "finite":
        cls, columns = classify_finite(traj.final, cfg["classify"]["angle_tol"]), {"U": traj.u_series}
    else:
        cls = classify_measure(traj.final, **cfg["classify"])
        columns = {"H": traj.h_series, "entropy_change": traj.entropy_series}
    columns = {"t": traj.times, "R": traj.r_series, "phi": traj.phi_series,
               "mean_phase": traj.mean_phase_series, **columns}
    rows = [{c: v[i] for c, v in columns.items()} for i in range(len(traj.times))]
    return rows, {
        "final_r": traj.r_series[-1],
        "final_phi": traj.phi_series[-1],
        "stopped_on": traj.stopped_on,
        "t_final": traj.times[-1],
        "class": dataclasses.asdict(cls),
    }


def run_roots(cfg: dict, out: Path):
    k = cfg["model"]["coupling"]
    result = self_consistency_roots(build_freq_dist(cfg), k)
    return [], {"coupling": k, "roots": result.roots, "largest": result.largest,
                "k_supercritical": result.k_supercritical}


def run_kc(cfg: dict, out: Path):
    return [], {"k_c": critical_coupling(build_freq_dist(cfg))}


def run_classify(cfg: dict, out: Path):
    check_tolerances(**cfg["classify"])
    cls = classify_finite(build_ensemble(cfg), cfg["classify"]["angle_tol"])
    return [], {"class": dataclasses.asdict(cls)}


def _sweep_point(state, sim: SimConfig, run, k: float) -> tuple[float, str]:
    """Final R and stop reason of the start state run at coupling k; at
    module level, so a worker process can unpickle it."""
    traj = run(dataclasses.replace(state, coupling=k), sim)
    return float(traj.r_series[-1]), traj.stopped_on


def _cpus() -> int:
    """CPUs this process may run on, or 1 where the platform cannot fork."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus if hasattr(os, "fork") else 1


def _workers(points: int, cpus: int) -> int:
    """Processes for equal independent points on `cpus` CPUs: one per point up
    to `cpus` points; beyond, the fewest w >= cpus whose last round, points
    mod w, is empty or fills every CPU, so the sweep takes points/cpus
    point-times under fair time-sharing, not ceil(points/cpus)."""
    w = min(points, cpus)
    while 0 < points % w < cpus:
        w += 1
    return w


def run_sweep(cfg: dict, out: Path):
    """Also writes sweep.csv (K, final_R). Up to _workers points run at once
    in forked processes and give a serial run's bits, in K order."""
    sweep = cfg["sweep"]
    if sweep["k_steps"] < 1:
        raise ConfigError("[sweep] k_steps must be >= 1")
    k_min, k_max = _need(sweep, "k_min"), _need(sweep, "k_max")
    if not math.isfinite(k_max - k_min):  # nan, +-inf, or a span that overflows
        raise ConfigError("[sweep] k_min, k_max and k_max - k_min must be finite")
    sim = _affordable(cfg, cfg["model"]["kind"], build_sim_config(cfg), sweep["k_steps"])
    ks = [float(k) for k in np.linspace(k_min, k_max, sweep["k_steps"])]
    # built once, the model at the least K (model.coupling plays no part), so a
    # config the builders refuse, or a negative K, is refused before any worker starts
    state, run = _initial(cfg, cfg["model"]["kind"], min(ks))
    point = functools.partial(_sweep_point, state, sim, run)
    workers = _workers(len(ks), _cpus())
    if workers == 1:
        results = list(map(point, ks))
    else:  # imported here: the import alone costs about 20 ms
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(point, ks))
    points = [{"K": k, "final_R": r, "stopped_on": stop} for k, (r, stop) in zip(ks, results)]
    write_csv(out / "sweep.csv", ["K", "final_R"], points)
    return [], {"points": points}


RUNNERS = {
    "finite": functools.partial(run_simulation, "finite"),
    "kinetic": functools.partial(run_simulation, "kinetic"),
    "roots": run_roots,
    "kc": run_kc,
    "classify": run_classify,
    "sweep": run_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="phasesync", description=__doc__)
    parser.add_argument("mode", choices=RUNNERS)
    parser.add_argument("--config", help="INI config file or emitted manifest.json")
    parser.add_argument("--preset", choices=PRESETS, help="built-in config to start from")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override a config key")
    parser.add_argument("--out", help="output directory (default $PHASESYNC_OUT or ./phasesync-out)")
    args = parser.parse_args(argv)

    manifest = None
    try:
        if not (args.config or args.preset):
            raise ConfigError("one of --config or --preset is required")
        cfg = load_preset(args.preset) if args.preset else {}
        for sec, kv in (load_config(args.config) if args.config else {}).items():
            cfg.setdefault(sec, {}).update(kv)
        cfg = apply_overrides(cfg, args.overrides)
        if args.mode == "roots" and cfg.get("model", {}).get("coupling") is None:
            # the default coupling serves the dynamics; a root needs a chosen K
            raise ConfigError("missing required key [model] coupling")
        cfg = resolve(cfg)
        # the output path stays out of the manifest so a rerun from the
        # manifest into a fresh directory reproduces every file bitwise
        run = cfg.pop("run")
        out = Path(args.out or run["out"] or os.environ.get("PHASESYNC_OUT") or "phasesync-out")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file on the path
            raise ConfigError(f"cannot make output directory {out}: {exc.strerror or exc}") from exc
        manifest = out / "manifest.json"
        write_json(manifest, {"artifact": "phasesync", "version": __version__,
                              "mode": args.mode, "seed": cfg["model"]["seed"], "config": cfg})
        rows, summary = RUNNERS[args.mode](cfg, out)
        write_csv(out / "series.csv", SERIES_HEADER, rows)
        write_json(out / "summary.json", {"mode": args.mode, **summary})
        return EXIT_HORIZON if summary.get("stopped_on") == "t_max" else EXIT_OK
    except (ValueError, MemoryError) as exc:
        # ConfigError, every input a constructor or solver rejects, and a model or K
        # grid too large to allocate: the manifest of a run that never ran is not left behind
        if manifest is not None:
            manifest.unlink(missing_ok=True)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteStateError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

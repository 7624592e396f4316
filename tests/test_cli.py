import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import phasesync
import phasesync.cli as cli
from phasesync.cli import SCHEMA, SERIES_HEADER, apply_overrides, load_preset, main

DOCS = Path(__file__).resolve().parents[1] / "docs" / "config.md"
PYPROJECT = DOCS.parents[1] / "pyproject.toml"
SRC = DOCS.parents[1] / "src"

# the preset x mode pairs and short overrides of
# test_presets_run_in_every_mode_they_serve
PRESET_MODES = [
    ("three-osc", "finite"), ("three-osc", "classify"),
    ("two-antipodal", "finite"), ("two-antipodal", "classify"),
    ("uniform-arc", "kinetic"),
    ("kuramoto-uniform-g", "kinetic"), ("kuramoto-uniform-g", "roots"),
    ("kuramoto-uniform-g", "kc"), ("kuramoto-uniform-g", "sweep"),
]
SHORT = ["--set", "sim.t_max=0.1", "--set", "sweep.k_steps=2", "--set", "model.m=32"]


def run_cli(args):
    return main(args)


def read_summary(out):
    with open(out / "summary.json") as fh:
        return json.load(fh)


def read_series(out):
    with open(out / "series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestFiniteMode:
    def test_three_osc_preset_above_threshold(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["finite", "--preset", "three-osc",
                        "--set", "model.three_osc_delta0=1.2", "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["class"]["kind"] == "clustered"
        assert summary["class"]["k"] == 0  # delta0 > pi/3: complete phase sync
        assert summary["stopped_on"] == "stationary"

    def test_series_schema(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["finite", "--preset", "three-osc", "--out", str(out)])
        header, rows = read_series(out)
        assert header == SERIES_HEADER
        assert len(rows) > 2
        times = [float(r[0]) for r in rows]
        assert times == sorted(times)
        for r in rows:
            assert len(r) == len(SERIES_HEADER)
            assert 0.0 <= float(r[1]) <= 1.0 + 1e-12  # R column
            assert r[5] == "" and r[6] == ""  # H, entropy empty for finite runs

    def test_seeded_ensemble(self, tmp_path):
        # the manifest's model, rebuilt through the library, ends on the same bits
        out = tmp_path / "run"
        code = run_cli(["finite", "--preset", "uniform-arc", "--set", "model.n=10", "--set", "model.seed=3",
                        "--set", "model.freq_halfwidth=0.2", "--set", "model.zero_mean_freqs=yes",
                        "--set", "sim.t_max=1", "--out", str(out)])
        assert code == 3
        cfg = json.loads((out / "manifest.json").read_text())["config"]
        model = cfg["model"]
        ens = phasesync.seeded_ensemble(model["n"], model["coupling"], model["seed"], model["freq_halfwidth"],
                                        model["zero_mean_freqs"])
        traj = phasesync.simulate(ens, phasesync.SimConfig(**cfg["sim"]))
        assert read_summary(out)["final_r"] == traj.r_series[-1]

    def test_two_antipodal_stationary(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["finite", "--preset", "two-antipodal", "--out", str(out)])
        assert code == 0
        header, rows = read_series(out)
        # R = 0 throughout: phi cell stays empty
        assert all(r[2] == "" for r in rows)

    def test_horizon_exit_code(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["finite", "--preset", "three-osc",
                        "--set", "sim.t_max=0.5", "--out", str(out)])
        assert code == 3
        assert read_summary(out)["stopped_on"] == "t_max"

    @pytest.mark.parametrize("preset,mode", PRESET_MODES)
    def test_manifest_rerun_bitwise(self, tmp_path, preset, mode):
        a, b = tmp_path / "a", tmp_path / "b"
        code = run_cli([mode, "--preset", preset, *SHORT, "--out", str(a)])
        assert run_cli([mode, "--config", str(a / "manifest.json"), "--out", str(b)]) == code
        for name in ("manifest.json", "series.csv", "summary.json", "sweep.csv"):
            if (a / name).exists():
                assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_never_stores_run_out(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\nphases = 0, 1\n\n[sim]\nt_max = 0.1\n\n[run]\nout = {a}\n")
        code = run_cli(["finite", "--config", str(ini)])
        manifest = json.loads((a / "manifest.json").read_text())
        assert "out" not in manifest["config"].get("run", {})
        assert run_cli(["finite", "--config", str(a / "manifest.json"), "--out", str(b)]) == code
        for name in ("manifest.json", "series.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("preset,mode", [
        ("uniform-arc", "kinetic"), ("kuramoto-uniform-g", "kinetic"), ("three-osc", "finite"),
    ])
    def test_v050_manifest_replays_bitwise(self, tmp_path, preset, mode):
        # v0.5.0 stored the merged input: strings, no defaults, and a phase
        # spec standing alone either as freq_dist = none or without freq_dist
        sets = ["sim.t_max=0.1", "model.m=32"]
        cfg = apply_overrides(load_preset(preset), sets)
        if cfg["model"].get("freq_dist") == "none":
            del cfg["model"]["freq_dist"]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"artifact": "phasesync", "version": "0.5.0", "mode": mode,
                                        "seed": "0", "config": cfg}))
        a, b = tmp_path / "a", tmp_path / "b"
        code = run_cli([mode, "--preset", preset, *(x for s in sets for x in ("--set", s)), "--out", str(a)])
        assert run_cli([mode, "--config", str(manifest), "--out", str(b)]) == code
        for name in ("series.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestKineticMode:
    def test_uniform_arc_preset(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["kinetic", "--preset", "uniform-arc",
                        "--set", "model.m=256", "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["class"]["kind"] == "clustered"
        assert summary["final_r"] > 0.999
        header, rows = read_series(out)
        assert all(r[3] == "" for r in rows)  # U empty for kinetic runs
        assert all(r[5] != "" for r in rows)  # H recorded

    @pytest.mark.parametrize("atoms,code", [("1:0;0:1", 0), ("0.5:0:0.3;0:1;0.5:2:-0.3", 3)],
                             ids=["one-atom", "spread"])
    def test_zero_weight_atom_is_left_out(self, tmp_path, atoms, code):
        # both exited 2 with "weights must be positive"; one atom alone is at
        # rest, two of spread frequencies have not locked by t_max
        out = tmp_path / "run"
        assert run_cli(["kinetic", "--preset", "uniform-arc", "--set", "model.phase_spec=atoms",
                        "--set", f"model.atoms={atoms}", "--set", "sim.t_max=0.1", "--out", str(out)]) == code
        assert read_summary(out)["stopped_on"] == ("stationary" if code == 0 else "t_max")

    @pytest.mark.parametrize("sets", [["model.phase_spec=atoms", "model.atoms=1.5:0;-0.5:1"],
                                      ["model.phase_spec=atoms", "model.atoms=0:0;0:1"],
                                      ["model.phase_halfwidth=3.2"],
                                      ["model.phase_spec=tgauss_arc", "model.phase_sigma=0.5",
                                       "model.phase_halfwidth=3.2"]],
                             ids=["negative-weight", "all-zero-weights", "uniform-arc-past-pi", "tgauss-arc-past-pi"])
    def test_bad_phase_datum_is_config_error(self, tmp_path, capsys, sets):
        out = tmp_path / "run"
        assert run_cli(["kinetic", "--preset", "uniform-arc", *SHORT, *(x for s in sets for x in ("--set", s)),
                        "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestRootsAndKc:
    def test_roots_dirac(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["roots", "--preset", "kuramoto-uniform-g",
                        "--set", "model.freq_dist=dirac", "--set", "model.coupling=2.0",
                        "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["roots"] == [pytest.approx(1.0, abs=1e-10)]

    def test_kc_uniform(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["kc", "--preset", "kuramoto-uniform-g", "--out", str(out)])
        assert code == 0
        kc = read_summary(out)["k_c"]
        assert kc == pytest.approx(4 * 0.5 / np.pi, abs=1e-4)

    def test_kc_narrow_truncated_gaussian(self, tmp_path):
        # an unsplit quad never sampled this peak: v0.11.0 exited 2 on a
        # non-finite scan bound
        out = tmp_path / "run"
        code = run_cli(["kc", "--preset", "kuramoto-uniform-g", "--set", "model.freq_dist=tgauss",
                        "--set", "model.freq_sigma=1e-5", "--set", "model.freq_cut=0.3", "--out", str(out)])
        assert code == 0
        assert read_summary(out)["k_c"] == pytest.approx(0.3 + 1e-10 / 0.6, abs=1e-14)

    def test_roots_without_coupling_is_config_error(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nfreq_dist = uniform\nfreq_halfwidth_g = 0.5\n")
        assert run_cli(["roots", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_roots_support_too_wide_is_config_error(self, tmp_path, capsys):
        # max|omega| / K = 0.5 / 0.3 > 1 admits no R
        code = run_cli(["roots", "--preset", "kuramoto-uniform-g", "--set", "model.coupling=0.3",
                        "--out", str(tmp_path)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_kc_above_the_former_cap(self, tmp_path):
        # the cap k_max = 100 made this exit 1, "no supercritical bracket"
        out = tmp_path / "run"
        assert run_cli(["kc", "--preset", "kuramoto-uniform-g", "--set", "model.freq_halfwidth_g=100",
                        "--out", str(out)]) == 0
        assert abs(read_summary(out)["k_c"] - 400 / np.pi) <= 1e-12 * 400 / np.pi

    @pytest.mark.parametrize("mode,key,value", [("kc", "model.freq_halfwidth_g", "1e200"),
                                                ("roots", "model.coupling", "1e300")])
    def test_square_that_overflows_is_config_error(self, tmp_path, capsys, mode, key, value):
        # kc wrote "k_c": NaN, and roots an empty list, each with exit 0
        out = tmp_path / "run"
        assert run_cli([mode, "--preset", "kuramoto-uniform-g", "--set", f"{key}={value}",
                        "--out", str(out)]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("mode", ["kc", "roots"])
    def test_law_whose_width_squares_to_zero_is_config_error(self, tmp_path, capsys, mode):
        # it ended in a ZeroDivisionError traceback
        out = tmp_path / "run"
        assert run_cli([mode, "--preset", "kuramoto-uniform-g", "--set", "model.freq_halfwidth_g=1e-300",
                        "--out", str(out)]) == 2
        assert "underflows" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_two_atoms(self, tmp_path):
        # on the atoms +-w the roots at K are sqrt((1 +- sqrt(1 - 4w^2/K^2))/2) and K_c is 2w
        w, k = 0.3583, 1.2
        atoms = ["--preset", "kuramoto-uniform-g", "--set", "model.freq_dist=discrete",
                 "--set", f"model.freq_omegas={-w},{w}", "--set", "model.freq_probs=0.5,0.5"]
        assert run_cli(["roots", *atoms, "--set", f"model.coupling={k}", "--out", str(tmp_path / "roots")]) == 0
        assert run_cli(["kc", *atoms, "--out", str(tmp_path / "kc")]) == 0
        d = math.sqrt(1 - 4 * w * w / (k * k))
        want = [math.sqrt((1 - d) / 2), math.sqrt((1 + d) / 2)]
        roots = read_summary(tmp_path / "roots")["roots"]
        assert len(roots) == 2 and all(abs(r - x) <= 1e-12 for r, x in zip(roots, want))
        assert abs(read_summary(tmp_path / "kc")["k_c"] - 2 * w) <= 1e-15

    @pytest.mark.parametrize("mode", ["kc", "roots"])
    def test_no_frequency_law_is_config_error(self, tmp_path, capsys, mode):
        out = tmp_path / "run"
        assert run_cli([mode, "--preset", "kuramoto-uniform-g", "--set", "model.freq_dist=none",
                        "--out", str(out)]) == 2
        assert "freq_dist = none names no frequency law" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_missing_law_parameter_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["kc", "--preset", "kuramoto-uniform-g", "--set", "model.freq_dist=tgauss",
                        "--out", str(out)]) == 2
        assert "missing required key [model] freq_sigma" in capsys.readouterr().err


class TestNarrowGaussian:
    """A Gaussian width whose square is not a normal float, or so narrow
    that every cell's mass underflows, exits 2 before numpy can warn."""

    @pytest.mark.parametrize("argv", [
        # it ended in a ZeroDivisionError traceback: sigma^2 is subnormal
        ["kc", "--preset", "kuramoto-uniform-g", "--set", "model.freq_dist=tgauss",
         "--set", "model.freq_mean=-7.458340731200207e-155", "--set", "model.freq_sigma=4.474994438720124e-155",
         "--set", "model.freq_cut=7.458340731200207e-155"],
        # sigma^2 overflows: it was accepted, as a flat density
        ["kc", "--preset", "kuramoto-uniform-g", "--set", "model.freq_dist=tgauss",
         "--set", "model.freq_sigma=1e200", "--set", "model.freq_cut=1"],
        # it warned "invalid value encountered in divide" before exit 2
        ["kinetic", "--preset", "uniform-arc", "--set", "model.phase_spec=tgauss_arc",
         "--set", "model.phase_sigma=1e-300"],
        ["kinetic", "--preset", "uniform-arc", "--set", "model.phase_spec=tgauss_arc",
         "--set", "model.phase_sigma=1e-100"],
        ["kinetic", "--preset", "uniform-arc", "--set", "model.phase_spec=tgauss_arc",
         "--set", "model.phase_sigma=1.5e-154", "--set", "model.phase_halfwidth=3.14159"],
        ["kinetic", "--preset", "kuramoto-uniform-g", "--set", "model.freq_dist=tgauss",
         "--set", "model.freq_sigma=1e-8", "--set", "model.freq_cut=0.5"],
        # the pdf warned "overflow encountered in multiply" before exit 2
        ["kinetic", "--preset", "kuramoto-uniform-g", "--set", "model.freq_dist=tgauss",
         "--set", "model.freq_sigma=1e-100", "--set", "model.freq_cut=1e300"],
    ])
    def test_is_config_error_without_a_warning(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli([*argv, "--set", "sim.t_max=0.1", "--out", str(out)]) == 2
        assert "config error: sigma" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["kinetic", "--preset", "uniform-arc", "--set", "model.phase_spec=tgauss_arc",
         "--set", "model.phase_sigma=1e-3"],
        ["kinetic", "--preset", "kuramoto-uniform-g", "--set", "model.freq_dist=tgauss",
         "--set", "model.freq_sigma=1e-3", "--set", "model.freq_cut=0.5"],
    ], ids=["arc", "law"])
    def test_cells_of_zero_mass_leave_a_runnable_law(self, tmp_path, argv):
        # most cells underflow to mass 0, and the run exited 2 with "weights
        # must be positive"; a zero-mass cell carries nothing and is left out
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli([*argv, "--set", "sim.t_max=0.1", "--out", str(out)]) == 3
        assert read_summary(out)["stopped_on"] == "t_max"


class TestRetiredKeys:
    """[roots] grid and [kc] tol, which every v0.12.x manifest holds and no
    solver reads any more: a config that names them, JSON manifest, INI file
    or --set, exits 2 on the unknown section."""

    @pytest.mark.parametrize("section,key,value", [("roots", "grid", 4096), ("kc", "tol", 1e-6)])
    @pytest.mark.parametrize("preset,mode", [("three-osc", "finite"), ("kuramoto-uniform-g", "kinetic"),
                                             ("kuramoto-uniform-g", "roots"), ("kuramoto-uniform-g", "kc")])
    def test_json_manifest_names_an_unknown_section(self, tmp_path, capsys, preset, mode, section, key, value):
        # each mode's manifest, as v0.12.x wrote them all with both keys
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli([mode, "--preset", preset, *SHORT, "--out", str(a)]) in (0, 3)
        doc = json.loads((a / "manifest.json").read_text())
        doc["config"][section] = {key: value}
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        assert run_cli([mode, "--config", str(old), "--out", str(b)]) == 2
        assert f"unknown section [{section}]" in capsys.readouterr().err
        assert not (b / "manifest.json").exists()

    @pytest.mark.parametrize("key", ["roots.grid=4096", "roots.grid=1", "kc.tol=1e-6", "kc.tol=nan"])
    def test_set_names_an_unknown_section(self, tmp_path, capsys, key):
        # v0.12.x read these values (and rejected grid=1 or tol=nan); now
        # every value exits 2, as the section is unknown
        section = key.split(".")[0]
        code = run_cli([section, "--preset", "kuramoto-uniform-g", "--set", key, "--out", str(tmp_path)])
        assert code == 2
        assert f"unknown section [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize("text,section", [("[roots]\ngrid = 4096\n", "roots"), ("[kc]\ntol = 1e-6\n", "kc")])
    def test_ini_file_names_an_unknown_section(self, tmp_path, capsys, text, section):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nfreq_dist = uniform\nfreq_halfwidth_g = 0.5\ncoupling = 1.5\n\n" + text)
        assert run_cli([section, "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        assert f"unknown section [{section}]" in capsys.readouterr().err


class TestClassifyMode:
    def test_explicit_phases(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["classify", "--preset", "two-antipodal",
                        "--set", "model.phases=0,0,3.141592653589793", "--set", "model.freqs=0,0,0",
                        "--out", str(out)])
        assert code == 0
        cls = read_summary(out)["class"]
        assert cls["kind"] == "clustered" and cls["k"] == 1


class TestSweepMode:
    def test_sweep_onset_near_kc(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["sweep", "--preset", "kuramoto-uniform-g",
                        "--set", "sweep.k_steps=7", "--set", "model.m=64",
                        "--set", "model.n_freq=16", "--set", "sim.t_max=30",
                        "--out", str(out)])
        assert code == 0
        points = read_summary(out)["points"]
        assert len(points) == 7
        ks = [p["K"] for p in points]
        rs = [p["final_R"] for p in points]
        kc = 4 * 0.5 / np.pi
        # subcritical couplings relax toward incoherence, supercritical lock
        assert all(r < 0.25 for k, r in zip(ks, rs) if k < kc - 0.15)
        assert all(r > 0.5 for k, r in zip(ks, rs) if k > kc + 0.3)

    def test_points_record_stopped_on(self, tmp_path):
        out = tmp_path / "run"
        # at K = 0.2 the run reaches t_max; at K = 3 it locks and stops early
        code = run_cli(["sweep", "--preset", "kuramoto-uniform-g",
                        "--set", "sweep.k_min=0.2", "--set", "sweep.k_max=3.0",
                        "--set", "sweep.k_steps=2", "--set", "model.m=32",
                        "--set", "model.n_freq=4", "--set", "sim.t_max=40",
                        "--set", "sim.stationarity_tol=1e-6", "--out", str(out)])
        assert code == 0
        points = read_summary(out)["points"]
        assert [p["stopped_on"] for p in points] == ["t_max", "stationary"]

    def test_default_m_matches_kinetic(self, tmp_path):
        # without [model] m, a one-point sweep and a kinetic run at the same
        # coupling discretise the same measure and end on the same R
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nkind = kinetic\nphase_spec = uniform_arc\nphase_halfwidth = 2.5\n"
                       "freq_dist = uniform\nfreq_halfwidth_g = 0.5\nn_freq = 2\ncoupling = 1.5\n\n"
                       "[sim]\nt_max = 0.5\nrecord_every = 10\n\n"
                       "[sweep]\nk_min = 1.5\nk_max = 1.5\nk_steps = 1\n")
        assert run_cli(["kinetic", "--config", str(ini), "--out", str(tmp_path / "kinetic")]) in (0, 3)
        assert run_cli(["sweep", "--config", str(ini), "--out", str(tmp_path / "sweep")]) == 0
        [point] = read_summary(tmp_path / "sweep")["points"]
        assert point["final_R"] == read_summary(tmp_path / "kinetic")["final_r"]


class TestParallelSweep:
    """The points of a sweep run in worker processes, bit for bit as the
    library runs them one by one."""

    FINITE = ["--preset", "two-antipodal", "--set", "model.kind=finite",
              "--set", "model.phases=0,1,2.5", "--set", "model.freqs=0.3,-0.1,-0.2",
              "--set", "sweep.k_min=0.2", "--set", "sweep.k_max=2", "--set", "sweep.k_steps=3",
              "--set", "sim.t_max=5"]
    KINETIC = ["--preset", "kuramoto-uniform-g", "--set", "model.m=32", "--set", "model.n_freq=4",
               "--set", "model.freq_center=0.25", "--set", "sweep.k_steps=3", "--set", "sim.t_max=2"]

    @staticmethod
    def library_point(kind, model, sim, k):
        if kind == "finite":
            traj = phasesync.simulate(phasesync.OscillatorEnsemble([0, 1, 2.5], [0.3, -0.1, -0.2], k), sim)
        else:
            spec = phasesync.ProductSpec(phasesync.Uniform(model["phase_center"], model["phase_halfwidth"]),
                                         phasesync.Uniform(model["freq_center"], model["freq_halfwidth_g"]),
                                         n_freq=model["n_freq"])
            traj = phasesync.kinetic_simulate(phasesync.discretize(spec, model["m"], coupling=k), sim)
        return float(traj.r_series[-1]), traj.stopped_on

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["finite", "kinetic"])
    def test_points_equal_library_runs(self, tmp_path, monkeypatch, kind, workers):
        # 2 forces the process pool on a one-CPU host too; 3 is more workers
        # than CPUs, the rule's pool for the 3 points on 2 CPUs
        monkeypatch.setattr(cli, "_workers", lambda points, cpus: workers)
        out = tmp_path / "run"
        assert run_cli(["sweep", *(self.FINITE if kind == "finite" else self.KINETIC), "--out", str(out)]) == 0
        assert not multiprocessing.active_children()
        cfg = json.loads((out / "manifest.json").read_text())["config"]
        sim = phasesync.SimConfig(**cfg["sim"])
        points = read_summary(out)["points"]
        ks = [float(k) for k in np.linspace(cfg["sweep"]["k_min"], cfg["sweep"]["k_max"], cfg["sweep"]["k_steps"])]
        assert len(points) >= 3 and [p["K"] for p in points] == ks
        for p in points:
            assert (p["final_R"], p["stopped_on"]) == self.library_point(kind, cfg["model"], sim, p["K"])
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(float(k), float(r)) for k, r in rows] == [(p["K"], p["final_R"]) for p in points]

    @pytest.mark.parametrize("kind", ["finite", "kinetic"])
    def test_one_point_sweep_is_the_mode_run(self, tmp_path, kind):
        # a sweep point at K and the finite or kinetic mode at model.coupling
        # = K build one model, through cli._initial, and end on the same bits
        k = 1.3
        base = self.FINITE if kind == "finite" else self.KINETIC
        one = ["--set", f"sweep.k_min={k}", "--set", f"sweep.k_max={k}", "--set", "sweep.k_steps=1"]
        assert run_cli(["sweep", *base, *one, "--out", str(tmp_path / "sweep")]) == 0
        assert run_cli([kind, *base, "--set", f"model.coupling={k}", "--out", str(tmp_path / kind)]) in (0, 3)
        [point] = read_summary(tmp_path / "sweep")["points"]
        run = read_summary(tmp_path / kind)
        assert (point["K"], point["final_R"], point["stopped_on"]) == (k, run["final_r"], run["stopped_on"])

    @pytest.mark.parametrize("coupling", ["-1", "nan"])
    @pytest.mark.parametrize("kind", ["finite", "kinetic"])
    def test_model_coupling_plays_no_part(self, tmp_path, kind, coupling):
        # the model is built at the least K of the sweep, never at model.coupling
        base = self.FINITE if kind == "finite" else self.KINETIC
        assert run_cli(["sweep", *base, "--out", str(tmp_path / "plain")]) == 0
        assert run_cli(["sweep", *base, "--set", f"model.coupling={coupling}", "--out", str(tmp_path / "set")]) == 0
        assert (tmp_path / "set" / "sweep.csv").read_bytes() == (tmp_path / "plain" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["finite", "kinetic"])
    def test_serial_sweep_builds_its_model_once(self, tmp_path, monkeypatch, kind):
        calls, initial = [], cli._initial
        monkeypatch.setattr(cli, "_cpus", lambda: 1)
        monkeypatch.setattr(cli, "_initial", lambda *args: (calls.append(args[1:]), initial(*args))[1])
        out = tmp_path / "run"
        assert run_cli(["sweep", *(self.FINITE if kind == "finite" else self.KINETIC), "--out", str(out)]) == 0
        points = read_summary(out)["points"]
        assert len(points) == 3 and calls == [(kind, points[0]["K"])]

    @pytest.mark.parametrize("kind", ["finite", "kinetic"])
    def test_oversubscribed_pool_writes_the_serial_bytes(self, tmp_path, monkeypatch, kind):
        # 3 points on 2 usable CPUs: the rule's 3 workers, one worker per CPU
        # and one process write the same files
        sizes = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        rule, files = cli._workers, {}
        for name, pool in [("rule", None), ("per-cpu", 2), ("serial", 1)]:
            monkeypatch.setattr(cli, "_workers", rule if pool is None else lambda points, cpus, pool=pool: pool)
            out = tmp_path / name
            assert run_cli(["sweep", *(self.FINITE if kind == "finite" else self.KINETIC), "--out", str(out)]) == 0
            assert not multiprocessing.active_children()
            files[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert sizes == [3, 2]
        assert {"sweep.csv", "summary.json"} <= set(files["rule"])
        assert files["rule"] == files["per-cpu"] == files["serial"]

    @pytest.mark.parametrize("points,cpus,workers", [
        (1, 2, 1), (2, 2, 2), (3, 2, 3), (4, 2, 2), (5, 2, 3), (11, 2, 3), (13, 2, 5), (13, 4, 7),
        (1000, 2, 2), (1, 1, 1), (2, 1, 1), (13, 1, 1), (1000, 1, 1),
    ])
    def test_pool_size(self, points, cpus, workers):
        assert cli._workers(points, cpus) == workers

    def test_pool_ends_equal_points_in_their_fair_share(self):
        # w workers take the points in rounds of w, and n points running at
        # once on C fairly shared CPUs end after max(n, C) / C point-times;
        # makespan is C times the sum over the rounds
        for cpus in range(1, 17):
            for points in range(1, 2001):
                w = cli._workers(points, cpus)
                assert w <= points and w <= 7 * cpus, (points, cpus, w)
                rounds, last = divmod(points, w)
                makespan = rounds * max(w, cpus) + (max(last, cpus) if last else 0)
                assert makespan == max(points, cpus), (points, cpus, w)

    def test_usable_cpus(self):
        assert cli._cpus() == len(os.sched_getaffinity(0))

    def test_aborted_point_exits_1_without_hanging(self, tmp_path):
        # the parent could not unpickle a worker's NonFiniteStateError and
        # ended in a BrokenProcessPool traceback, not the abort's message
        argv = ["sweep", "--preset", "two-antipodal", "--set", "model.kind=finite",
                "--set", "model.phases=0,1", "--set", "model.freqs=1e308,-1e308",
                "--set", "sim.dt=1", "--set", "sim.t_max=2", "--set", "sweep.k_min=1",
                "--set", "sweep.k_max=2", "--set", "sweep.k_steps=3", "--out", str(tmp_path / "run")]
        script = ("import multiprocessing, sys, warnings; import phasesync.cli as cli\n"
                  "warnings.simplefilter('ignore', RuntimeWarning)\n"
                  "cli._cpus = lambda: 2\n"  # the rule's 3 workers, on a one-CPU host too
                  "code = cli.main(sys.argv[1:])\n"
                  "sys.exit(code if not multiprocessing.active_children() else 'child process left')\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                              timeout=120, env=env)
        assert done.returncode == 1, done.stderr
        assert "numerical abort: non-finite state at t=2" in done.stderr


class TestStartupWithoutScipy:
    """Only the stationary analysis integrates or solves, so only the kc and
    roots modes import SciPy, at their first adaptive integral (the uniform
    law's are closed forms); the simulating modes start without it."""

    TGAUSS = ["--set", "model.freq_dist=tgauss", "--set", "model.freq_sigma=0.3", "--set", "model.freq_cut=0.6"]

    @pytest.mark.parametrize("argv,code,scipy", [
        (["classify", "--preset", "three-osc"], 0, False),
        (["finite", "--preset", "three-osc"], 0, False),
        (["kinetic", "--preset", "uniform-arc", "--set", "sim.t_max=0.1"], 3, False),
        (["kc", "--preset", "kuramoto-uniform-g"], 0, False),
        (["kc", "--preset", "kuramoto-uniform-g", *TGAUSS], 0, True),
        (["roots", "--preset", "kuramoto-uniform-g", *TGAUSS], 0, True),
    ], ids=["classify", "finite", "kinetic", "kc-uniform", "kc-tgauss", "roots-tgauss"])
    def test_scipy_is_imported_only_to_integrate(self, tmp_path, argv, code, scipy):
        script = ("import sys; import phasesync.cli as cli\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print(code, 'scipy' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.stdout.split() == [str(code), str(scipy)], done.stderr


class TestConfigHandling:
    def test_missing_config_is_config_error(self):
        assert run_cli(["finite", "--config", "/nonexistent.ini"]) == 2

    def test_no_config_or_preset(self):
        assert run_cli(["finite"]) == 2

    def test_bad_override(self, tmp_path):
        assert run_cli(["finite", "--preset", "three-osc",
                        "--set", "nonsense", "--out", str(tmp_path)]) == 2

    def test_override_without_section(self, tmp_path, capsys):
        assert run_cli(["finite", "--preset", "three-osc", "--set", "coupling=1", "--out", str(tmp_path)]) == 2
        assert "--set key must be section.key, got 'coupling'" in capsys.readouterr().err

    def test_unknown_preset(self):
        with pytest.raises(cli.ConfigError, match="unknown preset 'nope'"):
            load_preset("nope")

    def test_bad_value(self, tmp_path):
        assert run_cli(["finite", "--preset", "three-osc",
                        "--set", "sim.dt=abc", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["finite", "--preset", "three-osc", "--set", "sim.dt=-1"],
        ["kinetic", "--preset", "uniform-arc", "--set", "model.m=0"],
        ["finite", "--preset", "three-osc", "--set", "sim.dtt=0.5"],
        ["finite", "--preset", "three-osc", "--set", "modle.coupling=1"],
        ["finite", "--preset", "three-osc", "--set", "model.Coupling=1"],
        # three_osc_delta0 would silently shadow phases
        ["finite", "--preset", "three-osc", "--set", "model.phases=0,1,2"],
        ["finite", "--preset", "three-osc", "--set", "model.zero_mean_freqs=ture"],
        ["finite", "--preset", "three-osc", "--set", "sim.t_max=inf"],
        # a ZeroDivisionError in the frequency quadrature
        ["kinetic", "--preset", "kuramoto-uniform-g", "--set", "model.n_freq=0"],
        # an IndexError; an empty root list at K = 1.5 > K_c; NaN and
        # Infinity (not JSON) in summary.json; non-finite frequency laws
        *(["roots", "--preset", "kuramoto-uniform-g", "--set", "model.coupling=1.5", "--set", bad]
          for bad in ("model.coupling=nan", "model.coupling=inf",
                      "model.freq_halfwidth_g=nan", "model.freq_halfwidth_g=inf")),
        # a seeded half-width below 0, or NaN, gave identical oscillators; 1e308 overflows the draw
        *(["finite", "--preset", "uniform-arc", "--set", "model.n=10", "--set", f"model.freq_halfwidth={bad}"]
          for bad in ("-0.5", "nan", "1e308")),
    ])
    def test_rejected_value_is_config_error(self, tmp_path, capsys, argv):
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,bad", [
        ("[model]\nn = 4\n\n[sim]\nt_max = 1\nrecord_evry = 5\n", "record_evry"),
        ("[DEFAULT]\nt_max = 1\n\n[model]\nn = 4\n", "[DEFAULT]"),
        ("[model]\nn = 4\n\n[simulation]\nt_max = 1\n", "[simulation]"),
        ("t_max = 1\n", "no section headers"),
    ], ids=["key", "default-section", "section", "no-section"])
    def test_unknown_key_in_config_file_is_config_error(self, tmp_path, capsys, text, bad):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        assert run_cli(["finite", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and bad in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [[], {"config": []}, {"config": {"sim": 5}}],
                             ids=["top-list", "config-list", "section-int"])
    def test_malformed_json_config_is_config_error(self, tmp_path, capsys, doc):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        assert run_cli(["finite", "--config", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset,mode", [
        ("three-osc", "finite"), ("three-osc", "classify"),
        ("two-antipodal", "finite"), ("two-antipodal", "classify"),
        ("uniform-arc", "kinetic"),
        ("kuramoto-uniform-g", "kinetic"), ("kuramoto-uniform-g", "roots"),
        ("kuramoto-uniform-g", "kc"), ("kuramoto-uniform-g", "sweep"),
    ])
    def test_presets_run_in_every_mode_they_serve(self, tmp_path, preset, mode):
        short = ["--set", "sim.t_max=0.1", "--set", "sweep.k_steps=2", "--set", "model.m=32"]
        code = run_cli([mode, "--preset", preset, *short, "--out", str(tmp_path)])
        assert code in (0, 3)

    def test_blow_up_is_numerical_abort(self, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(["finite", "--preset", "two-antipodal",
                            "--set", "model.phases=0,1", "--set", "model.freqs=1e308,-1e308",
                            "--set", "sim.dt=1", "--set", "sim.t_max=2", "--out", str(tmp_path)])
        assert code == 1
        assert "numerical abort:" in capsys.readouterr().err

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHASESYNC_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code = run_cli(["classify", "--preset", "two-antipodal"])
        assert code == 0
        assert (tmp_path / "envout" / "summary.json").exists()


def doc_key_tables() -> dict:
    """{section: {key: default cell}} from the key tables of docs/config.md."""
    tables, rows = {}, None
    for line in DOCS.read_text().splitlines():
        head = re.match(r"## `\[(\w+)\]`", line)
        if head or line.startswith("## "):
            rows = tables.setdefault(head.group(1), {}) if head else None
            continue
        row = re.match(r"\| `(\w+)` \| (`[^`]*`|unset) \|", line)
        if row and rows is not None:
            assert row.group(1) not in rows, f"{row.group(1)} documented twice"
            rows[row.group(1)] = row.group(2).strip("`")
    return tables


def test_doc_key_tables_match_schema():
    docs = doc_key_tables()
    assert {s: sorted(kv) for s, kv in docs.items()} == {s: sorted(kv) for s, kv in SCHEMA.items()}
    for section, keys in SCHEMA.items():
        for key, (parse, default) in keys.items():
            cell = docs[section][key]
            assert (None if cell == "unset" else parse(cell)) == default, f"[{section}] {key} = {cell}"


def test_version_matches_pyproject():
    # the manifests' version is the package's; the [project] table is read by
    # regex, as Python 3.10 has no tomllib
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", PYPROJECT.read_text(), re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == phasesync.__version__


class TestClassifyTolerances:
    @pytest.mark.parametrize("mode,preset,bad", [
        *(("kinetic", "uniform-arc", f"classify.mass_tol={v}") for v in ("nan", "1.0", "inf")),
        ("kinetic", "uniform-arc", "classify.angle_tol=2.0"),
        ("finite", "three-osc", "classify.angle_tol=nan"),
        ("classify", "three-osc", "classify.angle_tol=0.8"),
    ])
    def test_out_of_domain_tolerance_is_config_error(self, tmp_path, capsys, mode, preset, bad):
        # the run's files must not be left behind
        out = tmp_path / "run"
        assert run_cli([mode, "--preset", preset, *SHORT, "--set", bad, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and bad.split(".")[1].split("=")[0] in err
        assert not (out / "summary.json").exists() and not (out / "manifest.json").exists()

    @pytest.mark.parametrize("mode,preset,bad", [
        ("kinetic", "uniform-arc", "classify.mass_tol=nan"),
        ("kinetic", "uniform-arc", "classify.angle_tol=2.0"),
        ("finite", "three-osc", "classify.angle_tol=nan"),
        ("finite", "three-osc", "classify.mass_tol=1.0"),
    ])
    def test_checked_before_the_run(self, tmp_path, capsys, monkeypatch, mode, preset, bad):
        def no_run(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli, "simulate", no_run)
        monkeypatch.setattr(cli, "kinetic_simulate", no_run)
        out = tmp_path / "run"
        assert run_cli([mode, "--preset", preset, *SHORT, "--set", bad, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and bad.split(".")[1].split("=")[0] in err
        assert not (out / "manifest.json").exists()


class TestNonFiniteKineticData:
    @pytest.mark.parametrize("mode,preset,bad", [
        ("kinetic", "uniform-arc", ["model.phase_center=nan"]),
        ("kinetic", "uniform-arc", ["model.phase_spec=atoms", "model.atoms=1:nan"]),
        ("kinetic", "uniform-arc", ["model.phase_spec=atoms", "model.atoms=1:0:inf"]),
        ("sweep", "kuramoto-uniform-g", ["model.phase_center=nan"]),
    ])
    def test_is_config_error(self, tmp_path, capsys, mode, preset, bad):
        out = tmp_path / "run"
        sets = [x for b in bad for x in ("--set", b)]
        assert run_cli([mode, "--preset", preset, *SHORT, *sets, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestSweepRejectedBeforeRunning:
    SWEEP = ["sweep", "--preset", "kuramoto-uniform-g", *SHORT]

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_stationarity_tol_is_config_error(self, tmp_path, capsys, tol):
        out = tmp_path / "run"
        assert run_cli(self.SWEEP + ["--set", f"sim.stationarity_tol={tol}", "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("sets", [["sweep.k_steps=0"], ["sim.stationarity_tol=nan"], ["sim.dt=-1"]])
    def test_rejected_config_leaves_no_manifest(self, tmp_path, sets):
        # these pass the schema and are rejected once the run starts
        out = tmp_path / "run"
        assert run_cli(self.SWEEP + [x for s in sets for x in ("--set", s)] + ["--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_horizon_between_steps_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(self.SWEEP + ["--set", "sim.dt=0.03", "--out", str(out)]) == 2  # t_max = 0.1
        assert "whole number of steps" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("sets", [["sim.dt=1e-300"], ["sim.t_max=10000000.005", "sim.dt=0.01"]])
    def test_step_count_floats_cannot_check_is_config_error(self, tmp_path, capsys, monkeypatch, sets):
        # 1e299 and 1e9 + 0.5 steps: a run that starts fails here at once, not after hours
        def never(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "simulate", never)
        monkeypatch.setattr(cli, "kinetic_simulate", never)
        out = tmp_path / "run"
        assert run_cli(self.SWEEP + [x for s in sets for x in ("--set", s)] + ["--out", str(out)]) == 2
        assert "whole number of steps" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("kind", ["finite", "kinetic"])
    def test_negative_coupling_is_refused_before_any_point_runs(self, tmp_path, capsys, monkeypatch, kind):
        # the last of the three couplings is -1; the first point used to run
        def never(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "simulate", never)
        monkeypatch.setattr(cli, "kinetic_simulate", never)
        model = TestParallelSweep.FINITE if kind == "finite" else TestParallelSweep.KINETIC
        out = tmp_path / "run"
        bounds = ["--set", "sweep.k_min=1", "--set", "sweep.k_max=-1", "--set", "sweep.k_steps=3"]
        assert run_cli(["sweep", *model, *bounds, "--out", str(out)]) == 2
        assert "coupling must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_k_steps_below_one_is_config_error(self, tmp_path, capsys, steps):
        out = tmp_path / "run"
        assert run_cli(self.SWEEP + ["--set", f"sweep.k_steps={steps}", "--out", str(out)]) == 2
        assert "k_steps" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


class TestParticleStepBound:
    """A run of more than cli.MAX_PARTICLE_STEPS particle-steps to t_max,
    summed over a sweep's points, or a run or sweep point of either kind that
    would keep more than cli.MAX_KEPT_BYTES in its recorded rows, exits 2
    before it starts; every preset run is far below both bounds."""

    @staticmethod
    def run(args, tmp_path):
        # a process of its own, serial, with a timeout: a run the bound misses does not end
        script = "import sys; import phasesync.cli as cli\ncli._cpus = lambda: 1\nsys.exit(cli.main(sys.argv[1:]))\n"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", script, *args, "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, timeout=60, env=env)

    def test_finite_run_of_1e15_steps_exits_2(self, tmp_path):
        done = self.run(["finite", "--preset", "three-osc", "--set", "sim.dt=1e-9", "--set", "sim.t_max=1e6"], tmp_path)
        assert done.returncode == 2 and "3e+15 particle-steps" in done.stderr, done.stderr
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_sweep_sums_its_points(self, tmp_path):
        # 4 points of 3 particles x 1e10 steps: 1.2e11; 3 of them, 9e10, pass
        sets = ["model.kind=finite", "sweep.k_min=0.5", "sweep.k_max=1", "sweep.k_steps=4", "sim.dt=1e-6",
                "sim.t_max=1e4"]
        done = self.run(["sweep", "--preset", "three-osc", *(x for s in sets for x in ("--set", s))], tmp_path)
        assert done.returncode == 2 and "1.2e+11 particle-steps" in done.stderr, done.stderr
        # a row at each of 1e6 steps: 1e4 rows, far below the kept-row bound
        ens = cli.build_ensemble(load_preset("three-osc"))
        sim = phasesync.SimConfig(dt=1e-6, t_max=1e4, record_every=10**6)
        assert cli._affordable(ens, sim, 3) is sim

    @pytest.mark.parametrize("mode", ["finite", "sweep"])
    def test_finite_run_that_keeps_800_gb_exits_2(self, tmp_path, capsys, monkeypatch, mode):
        # N = 1000 and a row at each of 1e8 steps: at the particle-step bound, but
        # it would keep 1e11 phases in its rows; a run that starts fails here at once
        def never(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "simulate", never)
        sets = ["model.kind=finite", "model.n=1000", "sim.dt=0.001", "sim.t_max=1e5", "sim.record_every=1",
                "sweep.k_min=1", "sweep.k_max=1", "sweep.k_steps=1"]
        out = tmp_path / "run"
        assert run_cli([mode, "--preset", "uniform-arc", *(x for s in sets for x in ("--set", s)), "--out", str(out)]) == 2
        assert "keep 1e+08 recorded rows (850 GB)" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("mode", ["kinetic", "sweep"])
    def test_kinetic_run_that_keeps_25_tb_of_rows_exits_2(self, tmp_path, capsys, monkeypatch, mode):
        # 2 particles and a row at each of 5e10 steps: at the particle-step bound, and
        # no phases kept, but 5e10 rows of Python objects
        def never(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "kinetic_simulate", never)
        sets = ["model.m=2", "sim.dt=0.001", "sim.t_max=5e7", "sim.record_every=1", "sweep.k_min=1",
                "sweep.k_max=1", "sweep.k_steps=1"]
        out = tmp_path / "run"
        args = [mode, "--preset", "uniform-arc", *(x for s in sets for x in ("--set", s)), "--out", str(out)]
        assert run_cli(args) == 2
        assert "keep 5e+10 recorded rows (2.5e+04 GB)" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("preset,mode", [pm for pm in PRESET_MODES if pm[1] in ("finite", "kinetic", "sweep")])
    def test_preset_runs_are_under_a_hundredth_of_the_bound(self, preset, mode, monkeypatch):
        monkeypatch.setattr(cli, "MAX_KEPT_BYTES", cli.MAX_KEPT_BYTES / 100)
        cfg = cli.resolve(load_preset(preset))
        sim, points = cli.build_sim_config(cfg), cfg["sweep"]["k_steps"] if mode == "sweep" else 1
        state, _ = cli._initial(cfg, cfg["model"]["kind"] if mode == "sweep" else mode, cfg["model"]["coupling"])
        cli._affordable(state, sim, 100 * points)


class TestOversizedModel:
    """A model or K grid too large to allocate exits 2 with a message and
    leaves no manifest. Each run is a process of its own whose address space
    is capped at 4 GB, so the outcome does not hang on the host's overcommit."""

    @pytest.mark.parametrize("mode,preset,key", [
        ("finite", "uniform-arc", "model.n=1000000000000"),
        ("kinetic", "kuramoto-uniform-g", "model.m=100000000000"),
        ("sweep", "kuramoto-uniform-g", "sweep.k_steps=100000000000"),
        ("sweep", "kuramoto-uniform-g", "model.m=100000000000"),
    ])
    def test_exits_2(self, tmp_path, mode, preset, key):
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (4 * 10**9, 4 * 10**9))\n"
                  "import phasesync.cli as cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "run"
        done = subprocess.run([sys.executable, "-c", script, mode, "--preset", preset, "--set", key,
                               "--out", str(out)], capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 2 and "config error:" in done.stderr, done.stderr
        assert "Traceback" not in done.stderr
        assert not (out / "manifest.json").exists()


HOSTILE = ["nan", "inf", "-inf", "-1", "0", "1e308", "text", "", "0.5", "1e-300"]


def fuzz_sample(size=300, seed=0):
    """A fixed, seeded sample of (preset, mode, SCHEMA key, hostile value)
    over every preset x mode pair of PRESET_MODES."""
    keys = [f"{section}.{key}" for section in SCHEMA for key in SCHEMA[section]]
    cases = [(p, m, k, v) for p, m in PRESET_MODES for k in keys for v in HOSTILE]
    return random.Random(seed).sample(cases, size)


@pytest.mark.parametrize("mode,preset,sets", [
    ("kinetic", "uniform-arc", ["model.phase_center=inf"]),
    ("kinetic", "uniform-arc", ["model.phase_center=1e308"]),
    ("kinetic", "kuramoto-uniform-g", ["model.freq_center=1e308"]),
    ("kinetic", "kuramoto-uniform-g", ["model.freq_halfwidth_g=1e308"]),
    ("sweep", "kuramoto-uniform-g", ["sweep.k_min=-inf"]),
    ("sweep", "kuramoto-uniform-g", ["sweep.k_max=inf"]),
    ("sweep", "kuramoto-uniform-g", ["sweep.k_min=-1e308", "sweep.k_max=1e308"]),
])
def test_hostile_value_is_refused_before_any_arithmetic(tmp_path, capsys, mode, preset, sets):
    # numpy overflowed on each of these, and warned, before the run refused it
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli([mode, "--preset", preset, *SHORT, *(x for s in sets for x in ("--set", s)),
                        "--out", str(out)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_hostile_values_exit_with_a_code(tmp_path, capsys):
    # every run exits 0, 2 or 3, never with a traceback or a RuntimeWarning,
    # and an exit 2 leaves no manifest
    bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i, (preset, mode, key, value) in enumerate(fuzz_sample()):
            out = tmp_path / str(i)
            code = run_cli([mode, "--preset", preset, "--set", "sim.t_max=1", "--set", "sweep.k_steps=2",
                            "--set", f"{key}={value}", "--out", str(out)])
            if code not in (0, 2, 3) or code == 2 and (out / "manifest.json").exists():
                bad.append((preset, mode, key, value, code))
    capsys.readouterr()
    assert not bad

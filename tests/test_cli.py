import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from phasesync.cli import SCHEMA, SERIES_HEADER, apply_overrides, load_preset, main

DOCS = Path(__file__).resolve().parents[1] / "docs" / "config.md"

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

    @pytest.mark.parametrize("tol", ["0", "-1", "inf", "nan"])  # non-finite too
    def test_kc_nonpositive_tol_is_config_error(self, tmp_path, capsys, tol):
        code = run_cli(["kc", "--preset", "kuramoto-uniform-g", "--set", f"kc.tol={tol}",
                        "--out", str(tmp_path)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

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


class TestConfigHandling:
    def test_missing_config_is_config_error(self):
        assert run_cli(["finite", "--config", "/nonexistent.ini"]) == 2

    def test_no_config_or_preset(self):
        assert run_cli(["finite"]) == 2

    def test_bad_override(self, tmp_path):
        assert run_cli(["finite", "--preset", "three-osc",
                        "--set", "nonsense", "--out", str(tmp_path)]) == 2

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
          for bad in ("roots.grid=0", "roots.grid=1", "model.coupling=nan", "model.coupling=inf",
                      "model.freq_halfwidth_g=nan", "model.freq_halfwidth_g=inf")),
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


class TestSweepRejectedBeforeRunning:
    SWEEP = ["sweep", "--preset", "kuramoto-uniform-g", *SHORT]

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_stationarity_tol_is_config_error(self, tmp_path, capsys, tol):
        out = tmp_path / "run"
        assert run_cli(self.SWEEP + ["--set", f"sim.stationarity_tol={tol}", "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_k_steps_below_one_is_config_error(self, tmp_path, capsys, steps):
        out = tmp_path / "run"
        assert run_cli(self.SWEEP + ["--set", f"sweep.k_steps={steps}", "--out", str(out)]) == 2
        assert "k_steps" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

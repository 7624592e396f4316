"""The four benchmark workloads, their output checks, and the layer probes.

Every call into phasesync goes through its public API; nothing inside the
package is wrapped or patched. Inputs come from the benchmark seed only, and
every reference a check compares against comes from oracles.py.

Why these four workloads:

- finite-seeds: many identical-oscillator runs at N=10 that stop on
  stationarity; per-step Python overhead dominates.
- finite-large-n: one non-identical run at N=2000 that never becomes
  stationary (K is below max|w|, so no locked state exists); the stepping
  kernel and the O(N^2) potential row share the time.
- kinetic-sweep: the CLI sweep preset with a non-zero mean frequency, so
  every point runs to t_max in the lab frame; exercises the kinetic field
  at 4096 particles, the CLI config and its writers.
- stationary-kc: critical coupling and self-consistency roots for four
  frequency laws; no time stepping, so it is the no-change control for
  every stepper optimisation.
"""
from __future__ import annotations

import csv
import json
import math
import random
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracles

perf = time.perf_counter

# finite-seeds: the shape of the generic-convergence acceptance test
SMALL_N = 10
SEEDS_PER_PASS = 5
# finite-large-n
LARGE_N = 2000
LARGE_K = 0.45  # below max|w| ~ 0.5: no fully locked state, runs to t_max
LARGE_HALFWIDTH = 0.5
LARGE_POOL = 8
# kinetic-sweep: preset plus these overrides; K = 0.3, 0.9, 1.5 spans K_c = 0.637
SWEEP_PRESET = "kuramoto-uniform-g"
SWEEP_SETTINGS = {
    "model.freq_center": "0.25",
    "sim.t_max": "15",
    "sweep.k_min": "0.3",
    "sweep.k_max": "1.5",
    "sweep.k_steps": "3",
}
R_FLOOR = 0.05  # final R allowed at K <= K_c / 2 (a finite-particle residue)
R_TOL = 1e-3  # final R against the stationary root at K >= 1.25 K_c
# stationary-kc
TGAUSS = (0.0, 0.3, 0.6)
TGAUSS_KS = (0.8, 1.2, 2.0)
UNIFORM_GAMMA = 0.5
KC_TOL = 1e-5
UNGATED_KC = ("tgauss", "uniform-seeded")
ROOT_TOLS = {"uniform": 1e-8, "tgauss": 1e-10, "two-atom": 1e-10, "dirac": 1e-12}


def seeded(tag: str, seed: int) -> random.Random:
    """Deterministic stream for one input family and benchmark seed."""
    return random.Random(f"{tag}:{seed}")


def phase_center(seed: int) -> float:
    """Centre of the initial phase arc. The cost of numpy's sin and cos
    depends on the size of their arguments and phasesync does not wrap
    phases, so over centres in [-pi, pi] a sweep's time varies by 15%. The
    draw keeps the run's phase drift (freq_center * t_max) centred on 0,
    where the cost is flat."""
    drift = float(SWEEP_SETTINGS["model.freq_center"]) * float(SWEEP_SETTINGS["sim.t_max"])
    return -drift / 2.0 + seeded("kinetic-sweep", seed).uniform(-0.5, 0.5)


def uniform_gamma(seed: int) -> float:
    return seeded("stationary-kc", seed).uniform(0.4, 0.6)


class Tally:
    """Counts checked operations. One fails when it raises, returns
    non-finite output, or misses its oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)

    def op(self, label: str, fn):
        """Run fn, which returns a list of problems, as one checked operation."""
        try:
            problems = fn()
        except Exception:  # a failing operation is counted, the run goes on
            problems = [traceback.format_exc().rstrip()]
        self.check(label, problems)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _order(thetas) -> complex:
    return complex(np.mean(np.exp(1j * np.asarray(thetas))))


def _steps(traj, dt: float) -> int:
    return int(round((traj.times[-1] - traj.times[0]) / dt))


def time_calls(tracer, name: str, fn, calls: int, blocks: int) -> float:
    """Median seconds per call of fn over blocks of back-to-back calls."""
    per = []
    for _ in range(blocks):
        with tracer.span(name, calls=calls):
            t0 = perf()
            for _ in range(calls):
                fn()
            per.append((perf() - t0) / calls)
    return statistics.median(per)


# ---------------------------------------------------------------------------
# Shared inputs and accuracy probes


def small_ensemble(ps, seed: int, i: int = 0):
    return ps.seeded_ensemble(SMALL_N, seed=10_000 * seed + i)


def large_ensemble(ps, seed: int, i: int = 0):
    # seeded_ensemble uses streams s and s+1, so pool members step by 2
    return ps.seeded_ensemble(LARGE_N, coupling=LARGE_K, seed=10_000 * seed + 2 * i,
                              freq_halfwidth=LARGE_HALFWIDTH, zero_mean=True)


def sweep_overrides(seed: int, **extra) -> list[str]:
    settings = dict(SWEEP_SETTINGS, **{"model.phase_center": repr(phase_center(seed))})
    settings.update(extra)
    return [f"{k}={v}" for k, v in settings.items()]


class SweepReference:
    """K grid and expected final R of the sweep, from its resolved config."""

    def __init__(self, cfg: dict):
        sw = cfg["sweep"]
        self.ks = np.linspace(float(sw["k_min"]), float(sw["k_max"]), int(sw["k_steps"]))
        # the law is uniform around freq_center; in the co-rotating frame it
        # is zero-centred, and R does not depend on the frame
        self.gamma = float(cfg["model"]["freq_halfwidth_g"])
        self.kc = oracles.uniform_kc(self.gamma)
        self.r_star = {float(k): oracles.uniform_roots(self.gamma, float(k))[-1]
                       for k in self.ks if k >= 1.25 * self.kc}

    def problems(self, k: float, r: float) -> tuple[list, float | None]:
        """Problems with final R at coupling k, and |R - R*| when checked."""
        if not math.isfinite(r):
            return [f"K={k:g}: R={r}"], None
        if k <= 0.5 * self.kc:
            return ([f"K={k:g}: R={r:.3g} above floor {R_FLOOR}"] if r >= R_FLOOR else []), None
        if k in self.r_star:
            err = abs(r - self.r_star[k])
            return ([f"K={k:g}: |R-R*|={err:.3g}"] if err > R_TOL else []), err
        return [], None


def replay_sweep(ps, out: Path, tally: Tally, tracer) -> float:
    """Re-run each K of the sweep written to out through discretize +
    kinetic_simulate with the CLI's resolved config; final R must equal
    sweep.csv bit for bit. Returns the seconds those calls took."""
    cli = ps.cli
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    spec = cli.build_density_spec(cfg)
    sim = cli.build_sim_config(cfg)
    m = int(cfg["model"].get("m", 256))
    solved = [0.0]
    for k, r_csv in _read_sweep(out):
        def op():
            t0 = perf()
            with tracer.span("kinetic.discretize", m=m):
                meas = ps.discretize(spec, m=m, coupling=k)
            with tracer.span("kinetic.kinetic_simulate", particles=meas.n_particles) as a:
                traj = ps.kinetic_simulate(meas, sim)
            solved[0] += perf() - t0
            a.update(steps=_steps(traj, sim.dt), stationary=traj.stopped_on == "stationary")
            r = float(traj.r_series[-1])
            return [] if r == r_csv else [f"R={r!r} != sweep.csv {r_csv!r}"]
        tally.op(f"replay K={k:g}", op)
    return solved[0]


def _read_sweep(out: Path) -> list[tuple[float, float]]:
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["K", "final_R"]:
        raise ValueError(f"sweep.csv header {rows[0]}")
    return [(float(k), float(r)) for k, r in rows[1:]]


def kc_probe(ps, tally: Tally, tracer) -> float:
    """|K_c - oracle| on the truncated Gaussian, which sets kc_abs_err."""
    law = oracles.TruncGauss(*TGAUSS)
    ref = law.kc()
    err = [math.inf]

    def op():
        with tracer.span("stationary.critical_coupling", law="tgauss"):
            kc = ps.critical_coupling(ps.TruncatedGaussian(*TGAUSS))
        if not math.isfinite(kc):
            return [f"K_c={kc}"]
        err[0] = abs(kc - ref)
        return []

    tally.op("critical_coupling tgauss", op)
    return err[0]


def r_probe(ps, seed: int, tally: Tally, tracer) -> float:
    """|R_final - R*| at the sweep's supercritical K nearest K_c, run
    through discretize + kinetic_simulate with the sweep's resolved config."""
    cli = ps.cli
    cfg = cli.apply_overrides(cli.load_preset(SWEEP_PRESET), sweep_overrides(seed))
    ref = SweepReference(cfg)
    k = min(ref.r_star)
    spec, sim = cli.build_density_spec(cfg), cli.build_sim_config(cfg)
    err = [math.inf]

    def op():
        meas = ps.discretize(spec, m=int(cfg["model"]["m"]), coupling=k)
        with tracer.span("kinetic.kinetic_simulate", particles=meas.n_particles) as a:
            traj = ps.kinetic_simulate(meas, sim)
        a["steps"] = _steps(traj, sim.dt)
        problems, e = ref.problems(k, float(traj.r_series[-1]))
        if e is not None:
            err[0] = e
        return problems

    tally.op(f"kinetic K={k:g}", op)
    return err[0]


# ---------------------------------------------------------------------------
# Workloads. Each builds its inputs in __init__ (timed as set-up), computes
# references in prepare(), and runs passes; run_pass times each item of the
# pass inside clock.item().


class FiniteSeeds:
    name = "finite-seeds"

    def __init__(self, ps, seed: int, out: Path):
        self.ps, self.seed = ps, seed
        self.cfg = ps.SimConfig(dt=0.01, t_max=500.0, record_every=25)

    def prepare(self):
        pass

    def warmup(self, tally: Tally, tracer, clock):
        self._run(-1, tally, tracer, clock)

    def run_pass(self, p: int, tally: Tally, tracer, clock):
        for j in range(SEEDS_PER_PASS):
            self._run(p * SEEDS_PER_PASS + j, tally, tracer, clock)

    def _run(self, i: int, tally: Tally, tracer, clock):
        ps = self.ps

        def op():
            with tracer.span("integrate.seeded_ensemble"):
                ens = small_ensemble(ps, self.seed, i)
            with tracer.span("integrate.simulate", n=SMALL_N) as a:
                traj = ps.simulate(ens, self.cfg)
            a.update(steps=_steps(traj, self.cfg.dt), records=len(traj.times),
                     stationary=traj.stopped_on == "stationary")
            with tracer.span("classify.classify_finite"):
                cls = ps.classify_finite(traj.final)
            return check_clusters(traj, cls)

        with clock.item():
            tally.op(f"seed run {i}", op)

    def accuracy(self, tally: Tally, tracer) -> dict:
        return {"kc_abs_err": kc_probe(self.ps, tally, tracer),
                "r_abs_err": r_probe(self.ps, self.seed, tally, tracer)}


def check_clusters(traj, cls) -> list:
    """Identical oscillators end clustered with k in {0, 1} at the
    antipode, and R never decreases (beyond 1e-7)."""
    th = traj.final.phases
    r = np.asarray(traj.r_series)
    if not _finite(th, r):
        return ["non-finite state"]
    problems = []
    if traj.stopped_on not in ("stationary", "t_max"):
        problems.append(f"stopped_on={traj.stopped_on!r}")
    dr = np.diff(r)
    if dr.size and dr.min() < -1e-7:
        problems.append(f"R decreased by {-dr.min():.3g}")
    z = _order(th)
    d = np.abs(np.angle(np.exp(1j * (th - np.angle(z)))))  # distance to the mean phase, [0, pi]
    k = int(np.sum(d > np.pi / 2))
    spread = float(np.max(np.minimum(d, np.pi - d)))
    if spread >= 1e-3:
        problems.append(f"not clustered: max distance {spread:.3g}")
    elif k not in (0, 1):
        problems.append(f"{k} oscillators at the antipode")
    if cls.kind != "clustered" or cls.k != k:
        problems.append(f"classify_finite gave {cls.kind} k={cls.k}, expected clustered k={k}")
    if abs(abs(z) - r[-1]) > 1e-12:
        problems.append(f"final R {r[-1]!r} != |mean e^(i theta)| {abs(z)!r}")
    return problems


class FiniteLargeN:
    name = "finite-large-n"

    def __init__(self, ps, seed: int, out: Path):
        self.ps, self.seed = ps, seed
        self.cfg = ps.SimConfig(dt=0.01, t_max=5.0, record_every=250)
        self.pool = [large_ensemble(ps, seed, i) for i in range(LARGE_POOL)]

    def prepare(self):
        pass

    def warmup(self, tally: Tally, tracer, clock):
        self._run(LARGE_POOL - 1, tally, tracer, clock)

    def run_pass(self, p: int, tally: Tally, tracer, clock):
        self._run(p % LARGE_POOL, tally, tracer, clock)

    def _run(self, i: int, tally: Tally, tracer, clock):
        ps, ens = self.ps, self.pool[i]

        def op():
            with tracer.span("integrate.simulate", n=LARGE_N) as a:
                traj = ps.simulate(ens, self.cfg)
            a.update(steps=_steps(traj, self.cfg.dt), records=len(traj.times),
                     stationary=traj.stopped_on == "stationary")
            return check_potential(traj, ens)

        with clock.item():
            tally.op(f"large-N run {i}", op)

    def accuracy(self, tally: Tally, tracer) -> dict:
        return {"kc_abs_err": kc_probe(self.ps, tally, tracer),
                "r_abs_err": r_probe(self.ps, self.seed, tally, tracer)}


def check_potential(traj, ens) -> list:
    """U = N R^2 / 2 to 1e-9 relative on every row, and the mean phase
    (conserved for zero-mean frequencies) drifts by less than 1e-6."""
    if traj.stopped_on not in ("stationary", "t_max"):
        return [f"stopped_on={traj.stopped_on!r}"]
    if not _finite(traj.u_series, traj.final.phases):
        return ["non-finite state"]
    n = ens.n
    mp0 = float(np.mean(ens.phases))
    worst_u = worst_mp = 0.0
    for st, u in zip(traj.states, traj.u_series):
        ref = n * abs(_order(st.phases)) ** 2 / 2.0
        worst_u = max(worst_u, abs(u - ref) / ref)
        worst_mp = max(worst_mp, abs(float(np.mean(st.phases)) - mp0))
    problems = []
    if worst_u > 1e-9:
        problems.append(f"U vs N R^2/2: relative error {worst_u:.3g}")
    if worst_mp >= 1e-6:
        problems.append(f"mean phase drifted by {worst_mp:.3g}")
    return problems


class KineticSweep:
    name = "kinetic-sweep"

    def __init__(self, ps, seed: int, out: Path):
        self.ps, self.seed, self.out = ps, seed, out
        self.overrides = sweep_overrides(seed)
        self.cfg = ps.cli.apply_overrides(ps.cli.load_preset(SWEEP_PRESET), list(self.overrides))
        self.r_errs: list = []

    def argv(self, overrides) -> list[str]:
        sets = [a for o in overrides for a in ("--set", o)]
        return ["sweep", "--preset", SWEEP_PRESET, *sets, "--out", str(self.out)]

    def prepare(self):
        self.ref = SweepReference(self.cfg)

    def warmup(self, tally: Tally, tracer, clock):
        argv = self.argv(sweep_overrides(self.seed, **{"sim.t_max": "0.5"}))
        tally.op("warm-up sweep", lambda: [] if self.ps.cli.main(argv) == 0 else ["non-zero exit"])

    def run_pass(self, p: int, tally: Tally, tracer, clock):
        with clock.item():
            rows = self._sweep(tally, tracer)
        if tracer.enabled and not isinstance(rows, str):
            with tracer.span("replay"):
                replay_sweep(self.ps, self.out, tally, tracer)

    def _sweep(self, tally: Tally, tracer):
        ks = [float(k) for k in self.ref.ks]
        try:
            with tracer.span("cli.main", mode="sweep"):
                rc = self.ps.cli.main(self.argv(self.overrides))
            rows = _read_sweep(self.out) if rc in (0, 3) else f"exit code {rc}"
        except Exception:  # counted as failed points below
            rows = traceback.format_exc().rstrip()
        if isinstance(rows, str) or [k for k, _ in rows] != ks:
            for k in ks:
                tally.check(f"sweep K={k:g}", [f"sweep gave {rows}"])
        else:
            for k, r in rows:
                problems, err = self.ref.problems(k, r)
                if err is not None:
                    self.r_errs.append(err)
                tally.check(f"sweep K={k:g}", problems)
        return rows

    def accuracy(self, tally: Tally, tracer) -> dict:
        return {"kc_abs_err": kc_probe(self.ps, tally, tracer),
                "r_abs_err": max(self.r_errs) if self.r_errs else math.inf}


class StationaryKc:
    name = "stationary-kc"

    def __init__(self, ps, seed: int, out: Path):
        self.ps, self.seed = ps, seed
        rnd = seeded("stationary-kc", seed)
        self.gamma = rnd.uniform(0.4, 0.6)  # the draw uniform_gamma(seed) makes
        self.w = rnd.uniform(0.3, 0.5)
        self.laws = {
            "uniform": ps.Uniform(0.0, UNIFORM_GAMMA),
            "uniform-seeded": ps.Uniform(0.0, self.gamma),
            "tgauss": ps.TruncatedGaussian(*TGAUSS),
            "two-atom": ps.Discrete((-self.w, self.w), (0.5, 0.5)),
            "dirac": ps.Dirac(0.0),
        }
        ks = lambda kc: sorted(rnd.uniform(1.2, 3.0) * kc for _ in range(3))
        self.ks = {
            "uniform": ks(oracles.uniform_kc(UNIFORM_GAMMA)),
            "uniform-seeded": [],
            "tgauss": list(TGAUSS_KS),
            "two-atom": ks(oracles.two_atom_kc(self.w)),
            "dirac": [rnd.uniform(0.5, 2.0)],
        }
        self.kc_err: dict = {}

    def prepare(self):
        tg = oracles.TruncGauss(*TGAUSS)
        self.kc_ref = {"uniform": oracles.uniform_kc(UNIFORM_GAMMA),
                       "uniform-seeded": oracles.uniform_kc(self.gamma),
                       "tgauss": tg.kc(), "two-atom": oracles.two_atom_kc(self.w)}
        self.roots_ref = {
            "uniform": [oracles.uniform_roots(UNIFORM_GAMMA, k) for k in self.ks["uniform"]],
            "uniform-seeded": [],
            "tgauss": [oracles.tgauss_roots(tg, k) for k in self.ks["tgauss"]],
            "two-atom": [oracles.two_atom_roots(self.w, k) for k in self.ks["two-atom"]],
            "dirac": [[1.0]],
        }

    def warmup(self, tally: Tally, tracer, clock):
        for label, g in self.laws.items():
            if self.ks[label]:
                self._roots(label, g, 0, tally, tracer)

    def run_pass(self, p: int, tally: Tally, tracer, clock):
        with clock.item():
            for label, g in self.laws.items():
                if label in self.kc_ref:
                    self._kc(label, g, tally, tracer)
                for j in range(len(self.ks[label])):
                    self._roots(label, g, j, tally, tracer)

    def _kc(self, label, g, tally: Tally, tracer):
        def op():
            with tracer.span("stationary.critical_coupling", law=label):
                kc = self.ps.critical_coupling(g)
            if not math.isfinite(kc):
                return [f"K_c={kc}"]
            err = abs(kc - self.kc_ref[label])
            self.kc_err[label] = err
            # gaps on these laws are reported in kc_abs_err, not gated: the
            # bisection's 1024-point probe scans can miss the roots near
            # K_c (see README.md in this directory)
            if label not in UNGATED_KC and err > KC_TOL:
                return [f"|K_c - oracle| = {err:.3g}"]
            return []

        tally.op(f"critical_coupling {label}", op)

    def _roots(self, label, g, j, tally: Tally, tracer):
        k, ref, tol = self.ks[label][j], self.roots_ref[label][j], ROOT_TOLS[label]

        def op():
            with tracer.span("stationary.self_consistency_roots", law=label) as a:
                res = self.ps.self_consistency_roots(g, k)
            a["roots"] = len(res.roots)
            got = list(res.roots)
            if len(got) != len(ref) or any(abs(x - y) > tol for x, y in zip(got, ref)):
                return [f"K={k:g}: roots {got} vs oracle {ref}"]
            return []

        tally.op(f"roots {label} K={k:g}", op)

    def accuracy(self, tally: Tally, tracer) -> dict:
        return {"kc_abs_err": max(self.kc_err.values()) if len(self.kc_err) == len(self.kc_ref) else math.inf,
                "kc_gaps": dict(self.kc_err),
                "r_abs_err": r_probe(self.ps, self.seed, tally, tracer)}


# ---------------------------------------------------------------------------
# Layer probes: each public function timed on this seed's inputs of every
# workload (the finite-seeds ensemble, the finite-large-n ensemble, the
# kinetic-sweep measure, the stationary-kc laws). Traced runs only.


def _row(ps, ens):
    """What simulate does for one recorded row: the diagnostics plus the
    stationarity test (the finiteness test is left out)."""
    ps.order_parameter(ens)
    ps.potential_u(ens)
    ps.mean_phase(ens)
    ps.detect_stationarity(ens, 1e-9)


def layer_probes(ps, seed: int, out: Path, tally: Tally, tracer) -> dict:
    m = {}
    small = small_ensemble(ps, seed)
    m["integrate.step_us.small"] = 1e6 * time_calls(tracer, "integrate.step_rk4", lambda: ps.step_rk4(small, 0.01), 200, 7)
    m["core.rhs_us.small"] = 1e6 * time_calls(tracer, "core.finite_n_rhs", lambda: ps.finite_n_rhs(small), 500, 7)
    m["core.order_parameter_us.small"] = 1e6 * time_calls(tracer, "core.order_parameter", lambda: ps.order_parameter(small), 1000, 7)
    m["integrate.loop_us_per_step.small"] = 1e6 * loop_overhead(ps, small, tracer)
    with tracer.span("integrate.simulate", n=SMALL_N):
        final = ps.simulate(small, ps.SimConfig(dt=0.01, t_max=500.0, record_every=25)).final
    m["classify.finite_us"] = 1e6 * time_calls(tracer, "classify.classify_finite", lambda: ps.classify_finite(final), 200, 7)

    large = large_ensemble(ps, seed)
    m["integrate.step_us.large"] = 1e6 * time_calls(tracer, "integrate.step_rk4", lambda: ps.step_rk4(large, 0.01), 20, 5)
    m["core.rhs_us.large"] = 1e6 * time_calls(tracer, "core.finite_n_rhs", lambda: ps.finite_n_rhs(large), 50, 5)
    m["core.potential_u_ms.large"] = 1e3 * time_calls(tracer, "core.potential_u", lambda: ps.potential_u(large), 1, 3)
    m["integrate.record_ms.large"] = 1e3 * time_calls(tracer, "integrate.record_row", lambda: _row(ps, large), 1, 3)
    m["rng.draw_ns"] = 1e9 / LARGE_N * time_calls(
        tracer, "rng.uniform", lambda: ps.rng.uniform(seed, LARGE_N, -math.pi, math.pi), 3, 5)

    cli = ps.cli
    cfg = cli.apply_overrides(cli.load_preset(SWEEP_PRESET), sweep_overrides(seed))
    spec, n_phase = cli.build_density_spec(cfg), int(cfg["model"]["m"])
    k = float(SweepReference(cfg).ks[1])
    meas = ps.discretize(spec, m=n_phase, coupling=k)
    m["kinetic.discretize_ms"] = 1e3 * time_calls(tracer, "kinetic.discretize", lambda: ps.discretize(spec, m=n_phase, coupling=k), 5, 5)
    m["kinetic.step_us"] = 1e6 * time_calls(tracer, "kinetic.kinetic_step", lambda: ps.kinetic_step(meas, 0.01), 50, 5)
    m["kinetic.record_us"] = 1e6 * time_calls(
        tracer, "kinetic.record_row",
        lambda: (ps.h_functional(meas), ps.weighted_order_parameter(meas.weights, meas.thetas)), 100, 5)
    m["cli.overhead_s"] = cli_overhead(ps, seed, out, tally, tracer)
    d0 = seeded("three-osc", seed).uniform(0.1, 3.0)
    argv = ["classify", "--preset", "three-osc", "--set", f"model.three_osc_delta0={d0!r}", "--out", str(out)]
    m["cli.classify_ms"] = 1e3 * time_calls(tracer, "cli.main", lambda: cli.main(argv), 3, 5)

    uni, tg = ps.Uniform(0.0, uniform_gamma(seed)), ps.TruncatedGaussian(*TGAUSS)
    a_uni, a_tg = 1.2 * uni.max_abs_omega, 1.2 * tg.max_abs_omega
    m["freqdist.expect_us.uniform"] = 1e6 * time_calls(
        tracer, "freqdist.expect", lambda: uni.expect(lambda w: np.sqrt(np.maximum(a_uni * a_uni - w * w, 0.0))), 20, 7)
    m["freqdist.expect_us.tgauss"] = 1e6 * time_calls(
        tracer, "freqdist.expect", lambda: tg.expect(lambda w: np.sqrt(np.maximum(a_tg * a_tg - w * w, 0.0))), 20, 7)
    m["stationary.kc_s"] = time_calls(tracer, "stationary.critical_coupling", lambda: ps.critical_coupling(tg), 1, 1)
    m["stationary.roots_ms"] = 1e3 * time_calls(
        tracer, "stationary.self_consistency_roots", lambda: ps.self_consistency_roots(tg, TGAUSS_KS[1]), 1, 5)
    return m


def loop_overhead(ps, ens, tracer, steps: int = 500, every: int = 25, blocks: int = 15) -> float:
    """Seconds per step that simulate spends outside step_rk4 and the
    recorded rows: simulate time minus chained steps minus rows, measured
    back to back in each block (so host-speed drift cancels), median."""
    cfg = ps.SimConfig(dt=0.01, t_max=steps * 0.01, record_every=every)
    rows = steps // every + 1
    per = []
    for _ in range(blocks):
        with tracer.span("integrate.simulate", n=ens.n, steps=steps, records=rows):
            t0 = perf()
            ps.simulate(ens, cfg)
            t_sim = perf() - t0
        with tracer.span("integrate.step_rk4", calls=steps):
            t0 = perf()
            cur = ens
            for _ in range(steps):
                cur = ps.step_rk4(cur, 0.01)
            t_steps = perf() - t0
        with tracer.span("integrate.record_row", calls=rows):
            t0 = perf()
            for _ in range(rows):
                _row(ps, cur)
            t_rows = perf() - t0
        per.append((t_sim - t_steps - t_rows) / steps)
    return statistics.median(per)


def cli_overhead(ps, seed: int, out: Path, tally: Tally, tracer, repeats: int = 5) -> float:
    """Seconds a one-step sweep spends in the CLI outside discretize and
    kinetic_simulate (config, preset, writers), median over repeats."""
    argv = ["sweep", "--preset", SWEEP_PRESET,
            *[a for o in sweep_overrides(seed, **{"sim.t_max": "0.01"}) for a in ("--set", o)],
            "--out", str(out)]
    per = []
    for _ in range(repeats):
        with tracer.span("cli.main", mode="sweep"):
            t0 = perf()
            rc = ps.cli.main(argv)
            t_cli = perf() - t0
        tally.check("one-step sweep", [] if rc == 0 else [f"exit code {rc}"])
        with tracer.span("replay"):
            per.append(t_cli - replay_sweep(ps, out, tally, tracer))
    return statistics.median(per)

"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every test is self-contained, seeded, and runs in well under two minutes.
"""
import numpy as np
import pytest
from scipy.optimize import brentq

import phasesync as ps


@pytest.fixture
def report(capsys):
    def _report(criterion, ok, detail=""):
        with capsys.disabled():
            tag = "PASS" if ok else "FAIL"
            line = f"[{tag}] {criterion}"
            if detail:
                line += f" ({detail})"
            print(line, flush=True)
        assert ok, f"{criterion}: {detail}"

    return _report


def uniform_integral_closed_form(gamma, a):
    """int sqrt(a^2 - w^2) against the uniform pdf on [-gamma, gamma]."""
    return (gamma * np.sqrt(a * a - gamma * gamma) + a * a * np.arcsin(gamma / a)) / (2 * gamma)


def test_ac01_order_parameter_monotone_and_rate_formula(report):
    # 100 seeded identical-oscillator runs: R non-decreasing within 1e-7,
    # and the analytic R-rate matches central differences of the flow.
    ok = True
    detail = ""
    worst_fd = 0.0
    for seed in range(100):
        ens = ps.seeded_ensemble(20, coupling=1.0, seed=seed, freq_halfwidth=0.0)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=50, record_every=10))
        if np.min(np.diff(traj.r_series)) < -1e-7:
            ok, detail = False, f"seed {seed}: R decreased"
            break
        if seed < 10:
            # central difference across one small RK4 step in each direction
            mid = traj.states[min(5, len(traj.states) - 1)]
            h = 1e-3
            r_plus = ps.order_parameter(ps.step_rk4(mid, h)).r
            r_minus = ps.order_parameter(ps.step_rk4(mid, -h)).r
            fd = (r_plus - r_minus) / (2 * h)
            formula = ps.r_dot_identical(mid)
            if formula > 1e-6:
                rel = abs(fd - formula) / formula
                worst_fd = max(worst_fd, rel)
                if rel > 1e-4:
                    ok, detail = False, f"seed {seed}: rate mismatch rel={rel:.2e}"
                    break
    if ok:
        detail = f"100 runs monotone; worst rate FD rel err {worst_fd:.2e}"
    report("monotone order parameter + analytic R-rate", ok, detail)


def test_ac02_generic_convergence_to_one_or_two_clusters(report):
    # 200 seeded identical runs with pairwise-distinct initial phases all
    # end clustered with minority size 0 or 1; the empirical split is recorded.
    counts = {0: 0, 1: 0}
    ok = True
    detail = ""
    for seed in range(200):
        ens = ps.seeded_ensemble(10, coupling=1.0, seed=seed, freq_halfwidth=0.0)
        assert np.unique(ens.phases).size == 10
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=500, record_every=25))
        cls = ps.classify_finite(traj.final)
        if cls.kind != "clustered" or cls.k not in (0, 1):
            ok, detail = False, f"seed {seed}: {cls.kind}, k={cls.k}"
            break
        counts[cls.k] += 1
    if ok:
        detail = f"split k=0: {counts[0]}, k=1: {counts[1]}"
    report("generic convergence to (N,0) or (N-1,1)", ok, detail)


def test_ac03_three_oscillator_threshold(report):
    lo = ps.three_oscillator_limit(np.pi / 3 - 1e-2, t_max=200)
    hi = ps.three_oscillator_limit(np.pi / 3 + 1e-2, t_max=200)
    at = ps.OscillatorEnsemble([np.pi / 3, -np.pi / 3, np.pi], np.zeros(3), 1.0)
    vel = np.max(np.abs(ps.finite_n_rhs(at)))
    ok = abs(lo) < 1e-3 and abs(hi - np.pi) < 1e-3 and vel < 1e-9
    detail = f"limits {lo:.2e} / {hi:.6f}; threshold velocity {vel:.2e}"
    report("three-oscillator separation threshold", ok, detail)


def test_ac04_mean_phase_conserved_and_free_flow_exact(report):
    worst_drift = 0.0
    for seed in range(5):
        ens = ps.seeded_ensemble(15, coupling=1.0, seed=seed,
                                 freq_halfwidth=0.5, zero_mean=True)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=100, record_every=100))
        drift = np.max(np.abs(traj.mean_phase_series - traj.mean_phase_series[0]))
        worst_drift = max(worst_drift, drift)
    ens0 = ps.seeded_ensemble(15, coupling=0.0, seed=7, freq_halfwidth=0.7)
    traj0 = ps.simulate(ens0, ps.SimConfig(dt=0.01, t_max=10, record_every=1000))
    free_err = np.max(np.abs(traj0.final.phases - (ens0.phases + 10.0 * ens0.freqs)))
    ok = worst_drift < 1e-6 and free_err < 1e-12
    detail = f"mean-phase drift {worst_drift:.2e}; free-flow error {free_err:.2e}"
    report("mean-phase conservation + exact free flow", ok, detail)


def test_ac05_atomic_measure_matches_finite_n(report):
    worst = 0.0
    for seed in range(20):
        n = 10 + 2 * seed
        ens = ps.seeded_ensemble(n, coupling=0.5 + 0.1 * seed, seed=seed,
                                 freq_halfwidth=0.5)
        meas = ps.PhaseMeasure.from_ensemble(ens)
        cur_e, cur_m = ens, meas
        for step in range(1, 1001):
            cur_e = ps.step_rk4(cur_e, 0.01)
            cur_m = ps.kinetic_step(cur_m, 0.01)
            if step % 100 == 0:
                worst = max(worst, np.max(np.abs(cur_e.phases - cur_m.thetas)))
    ok = worst < 1e-10
    report("atomic kinetic measure reproduces finite-N flow",
           ok, f"sup-norm gap over 20 cases {worst:.2e}")


def test_ac06_nonatomic_data_fully_synchronizes(report):
    meas = ps.discretize(ps.Uniform(0.0, 0.9 * np.pi), 1024, coupling=1.0)
    traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=60, record_every=10))
    cls = ps.classify_measure(traj.final)
    phi = np.array([p for p in traj.phi_series if p is not None])
    tail = phi[int(0.9 * phi.size):]
    osc = np.max(tail) - np.min(tail)
    r_final = traj.r_series[-1]
    ok = (cls.kind == "clustered" and cls.c2 < 1e-3
          and r_final > 0.999 and osc < 1e-4)
    detail = f"c2={cls.c2:.2e}, R={r_final:.6f}, phi tail osc {osc:.2e}"
    report("non-atomic data reaches a single cluster", ok, detail)


def test_ac07_log_jacobian_entropy_identity(report):
    meas = ps.discretize(ps.Uniform(0.0, 2.5), 800, coupling=1.0)
    traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=5, record_every=1))
    s, r, t = traj.entropy_series, traj.r_series, traj.times
    # entropy change is -sum w log_jac: its derivative should be +K R^2,
    # equivalently d/dt sum w log_jac = -K R^2
    ds = (s[2:] - s[:-2]) / (t[2:] - t[:-2])
    kr2 = meas.coupling * r[1:-1] ** 2
    rel_plus = np.max(np.abs(ds - kr2) / kr2)
    rel_minus = np.max(np.abs((-ds) - (-kr2)) / kr2)
    ok = rel_plus < 1e-4 and rel_minus < 1e-4
    report("log-Jacobian / entropy production identity", ok,
           f"worst relative FD error {rel_plus:.2e}")


def test_ac08_h_functional_monotone_and_free_growth(report):
    worst_drop = 0.0
    for seed in range(20):
        spec = ps.ProductSpec(
            ps.Uniform(0.3 * (seed % 3), 1.5 + 0.05 * seed),
            ps.Uniform(0.0, 0.1 + 0.02 * seed),
            16,
        )
        meas = ps.discretize(spec, 48, coupling=1.0 + 0.05 * seed)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=20, record_every=10))
        worst_drop = min(worst_drop, np.min(np.diff(traj.h_series)))
    free = ps.discretize(ps.ProductSpec(ps.Uniform(0, 2.0), ps.Uniform(0, 0.5), 16),
                         32, coupling=0.0)
    ftraj = ps.kinetic_simulate(free, ps.SimConfig(dt=0.01, t_max=3, record_every=50))
    omega2 = float(np.sum(free.weights * free.omegas ** 2))
    growth_err = abs((ftraj.h_series[-1] - ftraj.h_series[0]) - ftraj.times[-1] * omega2)
    ok = worst_drop >= -1e-7 and growth_err < 1e-10
    detail = f"worst H decrement {worst_drop:.2e}; free-flow growth error {growth_err:.2e}"
    report("H functional non-decreasing + free-flow growth", ok, detail)


def test_ac09_self_consistency_oracles(report):
    # Dirac law: unique root R = 1
    dirac = ps.self_consistency_roots(ps.Dirac(0.0), 1.0)
    err_dirac = abs(dirac.largest - 1.0)

    # uniform law: root of the closed-form antiderivative residual
    gamma, k = 0.5, 1.2
    res_u = ps.self_consistency_roots(ps.Uniform(0, gamma), k)
    closed = lambda r: uniform_integral_closed_form(gamma, k * r) - k * r * r
    err_uniform = 0.0
    for r in res_u.roots:
        oracle = brentq(closed, max(r - 1e-3, gamma / k), min(r + 1e-3, 1.0),
                        xtol=1e-14, rtol=1e-15)
        err_uniform = max(err_uniform, abs(r - oracle))

    # two symmetric atoms: quadratic in R^2
    k2, w0 = 1.0, 0.3
    res_a = ps.self_consistency_roots(ps.Discrete((-w0, w0), (0.5, 0.5)), k2)
    disc = 1 - 4 * w0 ** 2 / k2 ** 2
    analytic = sorted(np.sqrt((1 + s * np.sqrt(disc)) / 2) for s in (-1, 1))
    err_atoms = max(abs(a - b) for a, b in zip(res_a.roots, analytic))

    # critical coupling vs a dense 2-D sign scan of the closed form
    kc = ps.critical_coupling(ps.Uniform(0, gamma))
    kc_scan = None
    rs = np.linspace(1e-6, 1.0, 2000)
    for kk in np.linspace(0.60, 0.68, 2000):
        a = kk * rs
        sel = a >= gamma
        if np.any(sel) and np.any(
                uniform_integral_closed_form(gamma, a[sel]) - kk * rs[sel] ** 2 >= 0):
            kc_scan = kk
            break
    err_kc = abs(kc - kc_scan)

    ok = (err_dirac < 1e-12 and len(res_u.roots) >= 1 and err_uniform < 1e-8
          and len(res_a.roots) == 2 and err_atoms < 1e-10 and err_kc < 1e-4)
    detail = (f"dirac {err_dirac:.1e}, uniform {err_uniform:.1e}, "
              f"two-atom {err_atoms:.1e}, Kc {err_kc:.1e}")
    report("self-consistency roots and critical coupling", ok, detail)


def test_ac10_stationary_density_round_trip(report):
    # sampled stationary state stays put under the kinetic flow
    g = ps.Uniform(0, 0.3)
    k = 1.0
    r_star = ps.self_consistency_roots(g, k).largest
    meas = ps.discretize(ps.StationaryDensity(g, k, r_star).sample_spec(512), coupling=k)
    traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=10, record_every=50))
    drift = np.max(np.abs(traj.r_series - r_star))

    # converged supercritical run lands on the arcsin support curve
    k2 = 1.5
    g2 = ps.Uniform(0, 0.3)
    m2 = ps.discretize(ps.ProductSpec(ps.Uniform(0.0, 2.5), g2, 33), 201, coupling=k2)
    fin = ps.kinetic_simulate(m2, ps.SimConfig(dt=0.01, t_max=80, record_every=100)).final
    op = ps.weighted_order_parameter(fin.weights, fin.thetas)
    curve = op.phi + np.arcsin(np.clip(fin.omegas / (k2 * op.r), -1.0, 1.0))
    d = ps.circle_distance(fin.thetas, curve)
    order = np.argsort(d)
    cum = np.cumsum(fin.weights[order])
    quantile = d[order][np.searchsorted(cum, 0.999)]
    ok = drift < 1e-3 and quantile < 1e-2
    detail = f"R drift {drift:.2e}; 99.9% mass within {quantile:.2e} of arcsin curve"
    report("stationary density round trip + arcsin support curve", ok, detail)


def test_ac11_incoherence_fourier_moments(report):
    # subcritical coupling: phase-Fourier moments of orders 0..3 decay to
    # the particle-quadrature floor (set by phase mixing over the horizon)
    floor = 1e-2
    g = ps.Uniform(0.1, 0.5)
    meas = ps.discretize(ps.ProductSpec(ps.Uniform(0.0, 2.0), g, 64), 128, coupling=0.4)
    init = [abs(ps.fourier_moment(meas, j)) for j in range(4)]
    fin = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.02, t_max=100, record_every=500)).final
    final = [abs(ps.fourier_moment(fin, j)) for j in range(4)]
    decayed = init[0] > 0.4 and all(m < floor for m in final)

    # uniform-on-the-circle data never leaves the floor
    uni = ps.discretize(ps.ProductSpec(ps.Uniform(0.0, np.pi), ps.Uniform(0, 0.5), 32),
                        128, coupling=0.4)
    cur = uni
    peak = 0.0
    for step in range(1, 2501):
        cur = ps.kinetic_step(cur, 0.02)
        if step % 250 == 0:
            peak = max(peak, max(abs(ps.fourier_moment(cur, j)) for j in range(4)))
    stays_flat = peak < 1e-10
    ok = decayed and stays_flat
    detail = (f"moments {init[0]:.3f} -> {max(final):.2e}; "
              f"uniform data peak {peak:.2e}")
    report("subcritical runs relax to incoherence", ok, detail)

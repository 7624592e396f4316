"""The allocation-free RK4 stepper against the v0.7.0 stepper it replaced.

The oracle is the v0.7.0 code path kept here verbatim: a closure over the
allocating field, the classical rk4_step, and (kinetic) the log-Jacobian
stage rates combined with the same weights and stacked with np.stack.
"""
import dataclasses

import numpy as np
import pytest

import phasesync as ps


def field_v070(thetas, omegas, weights, coupling, log_jac=True):
    if thetas.size < ps.core.HALF_ANGLE_MIN:
        c, s = np.cos(thetas), np.sin(thetas)
    else:
        t = np.tan(0.5 * thetas)
        q = t * t
        d = 1.0 / (1.0 + q)
        c, s = (1.0 - q) * d, (t + t) * d
    kx = coupling * c.dot(weights)
    ky = coupling * s.dot(weights)
    v = omegas + ky * c - kx * s
    return (v, -kx * c - ky * s) if log_jac else v


def rk4_combine_v070(y, dt, k1, k2, k3, k4):
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def rk4_step_v070(rate, y, dt):
    h = 0.5 * dt
    k1 = rate(y)
    k2 = rate(y + h * k1)
    k3 = rate(y + h * k2)
    k4 = rate(y + dt * k3)
    return rk4_combine_v070(y, dt, k1, k2, k3, k4)


def finite_step_v070(ens):
    w = np.full(ens.n, 1.0 / ens.n)
    rate = lambda phases: field_v070(phases, ens.freqs, w, ens.coupling, False)
    return (lambda y, dt: rk4_step_v070(rate, y, dt)), rate


def kinetic_step_v070(meas):
    w, om, k = meas.weights, meas.omegas, meas.coupling

    def step(y, dt):
        jac_rates = []

        def rate(thetas):
            v, jac_rate = field_v070(thetas, om, w, k)
            jac_rates.append(jac_rate)
            return v
        thetas = rk4_step_v070(rate, y[0], dt)
        return np.stack([thetas, rk4_combine_v070(y[1], dt, *jac_rates)])

    return step, lambda y: field_v070(y[0], om, w, k, False)


def drive_v070(step, velocity, y, cfg, time=0.0):
    """v0.7.0's driver loop: the recorded (t, y) rows and the stop reason."""
    n_steps = int(round(cfg.t_max / cfg.dt))
    rows = [(time, y)]
    for k in range(1, n_steps + 1):
        y = step(y, cfg.dt)
        t = time + k * cfg.dt
        if not np.isfinite(y).all():
            raise ps.NonFiniteStateError(t)
        if k % cfg.record_every == 0 or k == n_steps:
            rows.append((t, y))
            if np.max(np.abs(velocity(y))) < cfg.stationarity_tol:
                return rows, "stationary"
    return rows, "t_max"


def ensemble(n, coupling, mean_freq, halfwidth=0.5, seed=5):
    ens = ps.seeded_ensemble(n, coupling=coupling, seed=seed, freq_halfwidth=halfwidth)
    return ps.OscillatorEnsemble(ens.phases, ens.freqs + mean_freq, coupling)


def measure(n, coupling, mean_freq):
    # m phase nodes times n/m frequency nodes (511 = 7 * 73)
    m = 8 if n % 8 == 0 else 7
    spec = ps.ProductSpec(ps.UniformArc(0.3, 2.0), ps.Uniform(mean_freq, 0.4), n // m)
    meas = ps.discretize(spec, m, coupling=coupling)
    assert meas.n_particles == n
    return meas


FINITE_NS = [10, 511, 512, 2000]
KINETIC_NS = [64, 511, 512, 4096]  # 512 is the first half-angle size
CASES = [(1.3, 0.25), (0.0, 0.25), (0.9, 0.0)]  # (K, mean frequency)


class TestFiniteMatchesV070:
    @pytest.mark.parametrize("n", FINITE_NS)
    @pytest.mark.parametrize("k,mean", CASES)
    def test_simulate_bitwise(self, n, k, mean):
        ens = ensemble(n, k, mean)
        cfg = ps.SimConfig(dt=0.05, t_max=3.0, record_every=7)
        rows, stopped_on = drive_v070(*finite_step_v070(ens), ens.phases, cfg)
        traj = ps.simulate(ens, cfg)
        assert traj.stopped_on == stopped_on
        assert np.array_equal(traj.times, [t for t, _ in rows])
        for state, (_, y) in zip(traj.states, rows, strict=True):
            assert np.array_equal(state.phases, y)
        refs = [ps.OscillatorEnsemble(y, ens.freqs, k) for _, y in rows]
        ops = [ps.order_parameter(e) for e in refs]
        assert np.array_equal(traj.r_series, [op.r for op in ops])
        assert traj.phi_series == [op.phi for op in ops]
        assert np.array_equal(traj.u_series, [n * op.r**2 / 2.0 for op in ops])
        assert np.array_equal(traj.mean_phase_series, [ps.mean_phase(e) for e in refs])

    def test_simulate_bitwise_stationary_stop(self):
        ens = ps.seeded_ensemble(10, coupling=1.0, seed=2)
        cfg = ps.SimConfig(dt=0.1, t_max=400.0, record_every=25)
        rows, stopped_on = drive_v070(*finite_step_v070(ens), ens.phases, cfg)
        traj = ps.simulate(ens, cfg)
        assert stopped_on == traj.stopped_on == "stationary"
        assert np.array_equal(traj.times, [t for t, _ in rows])
        assert np.array_equal(traj.final.phases, rows[-1][1])

    @pytest.mark.parametrize("n", FINITE_NS)
    def test_step_rk4_bitwise(self, n):
        ens = ensemble(n, 1.1, 0.25)
        step, _ = finite_step_v070(ens)
        cur, y = ens, ens.phases
        for _ in range(10):
            cur, y = ps.step_rk4(cur, 0.04), step(y, 0.04)
            assert np.array_equal(cur.phases, y)


class TestKineticMatchesV070:
    @pytest.mark.parametrize("n", KINETIC_NS)
    @pytest.mark.parametrize("k,mean", CASES)
    def test_kinetic_simulate_bitwise(self, n, k, mean):
        meas = measure(n, k, mean)
        cfg = ps.SimConfig(dt=0.05, t_max=3.0, record_every=7)
        rows, stopped_on = drive_v070(*kinetic_step_v070(meas), np.stack([meas.thetas, meas.log_jacs]), cfg)
        traj = ps.kinetic_simulate(meas, cfg)
        assert traj.stopped_on == stopped_on
        assert np.array_equal(traj.times, [t for t, _ in rows])
        w = meas.weights
        ops = [ps.weighted_order_parameter(w, y[0]) for _, y in rows]
        assert np.array_equal(traj.r_series, [op.r for op in ops])
        assert traj.phi_series == [op.phi for op in ops]
        assert np.array_equal(traj.entropy_series, [-float(np.sum(w * y[1])) for _, y in rows])
        assert np.array_equal(traj.mean_phase_series, [float(np.sum(w * y[0])) for _, y in rows])
        assert np.array_equal(traj.h_series, [float(np.sum(w * y[0] * meas.omegas)) + k * op.r**2 / 2.0
                                              for (_, y), op in zip(rows, ops)])
        assert np.array_equal(traj.final.thetas, rows[-1][1][0])
        assert np.array_equal(traj.final.log_jacs, rows[-1][1][1])
        assert traj.final.time == rows[-1][0]

    @pytest.mark.parametrize("n", KINETIC_NS)
    def test_kinetic_step_bitwise(self, n):
        meas = measure(n, 1.4, 0.25)
        step, _ = kinetic_step_v070(meas)
        cur, y = meas, np.stack([meas.thetas, meas.log_jacs])
        for _ in range(10):
            cur, y = ps.kinetic_step(cur, 0.04), step(y, 0.04)
            assert np.array_equal(cur.thetas, y[0]) and np.array_equal(cur.log_jacs, y[1])


class TestResultsOutliveTheStepper:
    """The stepper reuses its buffers: nothing a caller holds may change."""

    @pytest.mark.parametrize("n", [10, 512])
    def test_simulate_states_unchanged_by_later_runs(self, n):
        ens = ensemble(n, 1.2, 0.25)
        cfg = ps.SimConfig(dt=0.05, t_max=1.0, record_every=3)
        traj = ps.simulate(ens, cfg)
        kept = [s.phases.copy() for s in traj.states]
        ps.simulate(ens, cfg)
        cur = traj.final
        for _ in range(3):
            cur = ps.step_rk4(cur, 0.05)
        assert all(np.array_equal(s.phases, p) for s, p in zip(traj.states, kept, strict=True))
        assert len({id(s.phases) for s in traj.states}) == len(traj.states)

    @pytest.mark.parametrize("n", [64, 512])
    def test_kinetic_final_unchanged_by_later_runs_and_steps(self, n):
        meas = measure(n, 1.2, 0.25)
        cfg = ps.SimConfig(dt=0.05, t_max=1.0, record_every=3)
        traj = ps.kinetic_simulate(meas, cfg)
        thetas, log_jacs = traj.final.thetas.copy(), traj.final.log_jacs.copy()
        ps.kinetic_simulate(meas, cfg)
        cur = traj.final
        for _ in range(3):
            cur = ps.kinetic_step(cur, 0.05)
        assert np.array_equal(traj.final.thetas, thetas)
        assert np.array_equal(traj.final.log_jacs, log_jacs)

    def test_chained_steps_leave_earlier_results(self):
        ens = ensemble(12, 1.2, 0.25)
        first = ps.step_rk4(ens, 0.05)
        kept = first.phases.copy()
        second = ps.step_rk4(first, 0.05)
        ps.step_rk4(second, 0.05)
        assert np.array_equal(first.phases, kept)
        meas = measure(64, 1.2, 0.25)
        m1 = ps.kinetic_step(meas, 0.05)
        kept = m1.thetas.copy(), m1.log_jacs.copy()
        ps.kinetic_step(ps.kinetic_step(m1, 0.05), 0.05)
        assert np.array_equal(m1.thetas, kept[0]) and np.array_equal(m1.log_jacs, kept[1])


class TestBlowUp:
    @pytest.mark.parametrize("n", [10, 512])
    def test_raises_at_the_step_that_produced_it(self, n):
        # phases grow by about 1e307 per step and overflow after some steps
        ens = ps.OscillatorEnsemble(np.linspace(0.0, 1.0, n), np.tile([1e307, -1e307], n // 2))
        cfg = ps.SimConfig(dt=1.0, t_max=40.0, record_every=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ps.NonFiniteStateError) as want:
                drive_v070(*finite_step_v070(ens), ens.phases, cfg)
            with pytest.raises(ps.NonFiniteStateError) as got:
                ps.simulate(ens, cfg)
            meas = ps.PhaseMeasure.from_ensemble(ens)
            with pytest.raises(ps.NonFiniteStateError) as got_kinetic:
                ps.kinetic_simulate(meas, cfg)
        assert want.value.time > 2.0
        assert got.value.time == got_kinetic.value.time == want.value.time


class TestTrustedEnsembles:
    def test_with_phases_still_validates(self):
        # the internal paths no longer go through with_phases; it still checks
        ens = ensemble(4, 1.2, 0.25)
        with pytest.raises(ValueError):
            ens.with_phases([0.0, np.nan, 1.0, 2.0])
        with pytest.raises(ValueError):
            ens.with_phases([0.0, 1.0])

    def test_rows_match_a_validated_rebuild(self):
        ens = ensemble(9, 1.2, 0.25)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.05, t_max=1.0, record_every=4))
        stepped = ps.step_rk4(ens, 0.05)
        for e in [*traj.states, stepped]:
            ref = ps.OscillatorEnsemble(e.phases, ens.freqs, ens.coupling)
            assert type(e) is ps.OscillatorEnsemble
            for f in dataclasses.fields(ps.OscillatorEnsemble):
                got, want = getattr(e, f.name), getattr(ref, f.name)
                assert np.array_equal(got, want) and type(got) is type(want), f.name
                assert np.asarray(got).dtype == np.asarray(want).dtype, f.name

    def test_rows_share_one_read_only_copy_of_freqs(self):
        ens = ensemble(9, 1.2, 0.25)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.05, t_max=1.0, record_every=4))
        freqs = traj.states[0].freqs
        assert all(s.freqs is freqs for s in traj.states)
        assert freqs is not ens.freqs and np.array_equal(freqs, ens.freqs)
        with pytest.raises(ValueError):
            freqs[0] = 0.0
        ens.freqs[0] += 1.0  # the caller's array stays the caller's
        assert freqs[0] == ens.freqs[0] - 1.0
        stepped = ps.step_rk4(ens, 0.05)
        assert stepped.freqs is not ens.freqs and np.array_equal(stepped.freqs, ens.freqs)

    def test_step_rk4_blow_up_still_rejected(self):
        ens = ps.OscillatorEnsemble([0.0, 1.0], [1e308, -1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                ps.step_rk4(ens, 1.0)

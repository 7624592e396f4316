import math
import pickle
import tracemalloc

import numpy as np
import pytest

import phasesync as ps
from reference import pairwise_rhs, rk4_step

_MASK = (1 << 64) - 1


def splitmix64_reference(seed, n):
    """Scalar splitmix64 on Python integers, one output at a time."""
    out = np.empty(n, dtype=np.uint64)
    state = int(seed) & _MASK
    for i in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out[i] = z ^ (z >> 31)
    return out


def pairwise_rk4(phases, freqs, coupling, dt, steps):
    """Classical RK4 on the O(N^2) pairwise vector field."""
    def rate(th):
        return pairwise_rhs(ps.OscillatorEnsemble(th, freqs, coupling))

    y = np.array(phases, dtype=float)
    for _ in range(steps):
        y = rk4_step(rate, y, dt)
    return y


class TestStepRK4:
    def test_free_flow_exact(self):
        # RK4 is exact when the derivative is constant (K = 0)
        ens = ps.OscillatorEnsemble([0.1, -0.7, 2.0], [1.0, -0.5, 0.25], coupling=0.0)
        out = ps.step_rk4(ens, 0.3)
        assert np.allclose(out.phases, ens.phases + 0.3 * ens.freqs, atol=1e-15)

    def test_stationary_input_unchanged(self):
        ens = ps.OscillatorEnsemble([0.0, np.pi], [0.0, 0.0], 1.0)
        out = ps.step_rk4(ens, 0.05)
        assert np.allclose(out.phases, ens.phases, atol=1e-15)

    def test_freqs_and_coupling_preserved(self):
        ens = ps.seeded_ensemble(5, coupling=1.3, seed=2, freq_halfwidth=0.2)
        out = ps.step_rk4(ens, 0.01)
        assert np.array_equal(out.freqs, ens.freqs)
        assert out.coupling == ens.coupling

    def test_one_step_order(self):
        # halving dt cuts the one-step error ~16x (5th-order local error)
        ens = ps.seeded_ensemble(6, seed=3)
        ref = ens
        for _ in range(20):
            ref = ps.step_rk4(ref, 0.2 / 20)  # dt/10 reference, x2 margin
        err = []
        for dt in (0.2, 0.1):
            cur = ens
            for _ in range(int(round(0.2 / dt))):
                cur = ps.step_rk4(cur, dt)
            err.append(np.max(np.abs(cur.phases - ref.phases)))
        ratio = err[0] / err[1]
        assert 8.0 < ratio < 40.0

    def test_global_convergence_order(self):
        # measured on the 3-oscillator reduced problem against dt=1e-5
        def integrate(delta0, dt, t_end):
            d = delta0
            for _ in range(int(round(t_end / dt))):
                d = rk4_step(ps.three_oscillator_rate, d, dt)
            return d

        ref = integrate(1.5, 1e-5, 1.0)
        e1 = abs(integrate(1.5, 0.04, 1.0) - ref)
        e2 = abs(integrate(1.5, 0.02, 1.0) - ref)
        order = np.log2(e1 / e2)
        assert order >= 3.9


class TestSimulate:
    def test_r_series_monotone_identical(self):
        ens = ps.seeded_ensemble(12, seed=21)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=30, record_every=5))
        assert np.all(np.diff(traj.r_series) >= -1e-7)

    def test_u_series_monotone_identical(self):
        ens = ps.seeded_ensemble(12, seed=22)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=30, record_every=5))
        assert np.all(np.diff(traj.u_series) >= -1e-7)

    def test_mean_phase_drift_zero_mean(self):
        ens = ps.seeded_ensemble(8, seed=23, freq_halfwidth=0.3, zero_mean=True)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=100, record_every=50))
        assert np.max(np.abs(traj.mean_phase_series - traj.mean_phase_series[0])) < 1e-6

    def test_free_flow_exact_horizon(self):
        ens = ps.seeded_ensemble(6, coupling=0.0, seed=24, freq_halfwidth=1.0)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=10, record_every=100))
        expect = ens.phases + 10.0 * ens.freqs
        assert np.max(np.abs(traj.final.phases - expect)) < 1e-12

    def test_phase_sum_grows_linearly(self):
        ens = ps.seeded_ensemble(7, seed=25, freq_halfwidth=0.5)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=100, record_every=100))
        mean_omega = np.mean(ens.freqs)
        expect = traj.mean_phase_series[0] + mean_omega * traj.times
        assert np.max(np.abs(traj.mean_phase_series - expect)) < 1e-6

    def test_deterministic_bitwise(self):
        cfg = ps.SimConfig(dt=0.01, t_max=5, record_every=10)
        a = ps.simulate(ps.seeded_ensemble(9, seed=26), cfg)
        b = ps.simulate(ps.seeded_ensemble(9, seed=26), cfg)
        assert np.array_equal(a.final.phases, b.final.phases)
        assert np.array_equal(a.r_series, b.r_series)

    @pytest.mark.parametrize("n", [10, 257])
    def test_matches_pairwise_reference_rk4(self, n):
        ens = ps.seeded_ensemble(n, coupling=0.8, seed=31, freq_halfwidth=0.5)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=5.0, record_every=500))
        assert traj.times[-1] == 500 * 0.01
        ref = pairwise_rk4(ens.phases, ens.freqs, ens.coupling, 0.01, 500)
        assert np.max(np.abs(traj.final.phases - ref)) <= 1e-12

    def test_u_series_is_potential_of_recorded_states(self):
        ens = ps.seeded_ensemble(11, coupling=0.9, seed=32, freq_halfwidth=0.3)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=2.0, record_every=20))
        expect = np.array([ps.potential_u(e) for e in traj.states])
        assert np.allclose(traj.u_series, expect, rtol=1e-14, atol=0.0)

    def test_recorded_phases_kept_once(self):
        # the recorded rows are the run's only copy of its phases: a run of
        # 1001 rows at N = 2000 peaks at 1.05 rows N 8 bytes of traced
        # allocations; v0.12.1 stacked the rows into a second copy (2.06)
        n, rows = 2000, 1001
        ens = ps.seeded_ensemble(n, coupling=1.3, seed=5, freq_halfwidth=0.5)
        cfg = ps.SimConfig(dt=0.01, t_max=10.0)
        tracemalloc.start()
        try:
            traj = ps.simulate(ens, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.times) == rows and traj.stopped_on == "t_max"
        assert peak <= 1.3 * rows * n * 8
        assert np.array_equal(traj.states[-1].phases, traj.final.phases)

    def test_stops_on_stationarity(self):
        ens = ps.seeded_ensemble(5, seed=27)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=500, record_every=10))
        assert traj.stopped_on == "stationary"
        assert traj.times[-1] < 500.0

    def test_records_aligned_and_increasing(self):
        traj = ps.simulate(ps.seeded_ensemble(5, seed=28), ps.SimConfig(dt=0.01, t_max=3, record_every=7))
        n = len(traj.times)
        assert len(traj.states) == n == len(traj.r_series) == len(traj.phi_series)
        assert len(traj.u_series) == n == len(traj.mean_phase_series)
        assert np.all(np.diff(traj.times) > 0)
        assert np.all((traj.r_series >= 0) & (traj.r_series <= 1 + 1e-12))

    def test_blow_up_is_numerical_abort(self):
        ens = ps.OscillatorEnsemble([0.0, 1.0], [1e308, -1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ps.NonFiniteStateError):
                ps.simulate(ens, ps.SimConfig(dt=1.0, t_max=4.0, record_every=2))

    def test_blow_up_is_numerical_abort_above_half_angle_cut(self):
        n = ps.core.HALF_ANGLE_MIN
        ens = ps.OscillatorEnsemble(np.linspace(0.0, 1.0, n), np.tile([1e308, -1e308], n // 2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ps.NonFiniteStateError):
                ps.simulate(ens, ps.SimConfig(dt=1.0, t_max=4.0, record_every=2))

    def test_abort_survives_pickling(self):
        # a sweep's worker sends it to the parent; unpickling called
        # __init__ with the message and raised ValueError
        err = pickle.loads(pickle.dumps(ps.NonFiniteStateError(1.5)))
        assert type(err) is ps.NonFiniteStateError
        assert err.time == 1.5 and str(err) == "non-finite state at t=1.5"

    @pytest.mark.parametrize("kwargs", [{"t_max": math.inf}, {"dt": math.inf}, {"t_max": math.nan}])
    def test_config_rejects_non_finite_times(self, kwargs):
        with pytest.raises(ValueError):
            ps.SimConfig(**kwargs)

    @pytest.mark.parametrize("dt,t_max", [(0.6, 1.0), (0.4, 1.0), (0.01, 0.105), (1e-300, 1e10)])
    def test_config_rejects_a_horizon_between_steps(self, dt, t_max):
        # the driver runs round(t_max/dt) steps: dt = 0.6 would end at t = 1.2, dt = 0.4 at 0.8;
        # with t_max/dt = inf that round raised OverflowError
        with pytest.raises(ValueError, match="whole number of steps"):
            ps.SimConfig(dt=dt, t_max=t_max)

    @pytest.mark.parametrize("dt,t_max", [(1e-300, 0.1), (0.01, 1e7 + 0.005), (1.0, 2.0**53 + 2)])
    def test_config_rejects_a_step_count_floats_cannot_check(self, dt, t_max):
        # 1e299 steps, past 2**53 where every float is whole; 1e9 + 0.5 steps,
        # where a tolerance of 1e-9 steps per step had grown to a half step
        with pytest.raises(ValueError, match="whole number of steps"):
            ps.SimConfig(dt=dt, t_max=t_max)

    @pytest.mark.parametrize("dt,t_max", [(1.0, 2.0**53), (0.01, 1e7), (0.01, 1e7 + 1e-6), (0.1, 5e3)])
    def test_config_accepts_a_large_whole_number_of_steps(self, dt, t_max):
        assert ps.SimConfig(dt=dt, t_max=t_max).t_max == t_max

    @pytest.mark.parametrize("dt,t_max", [(0.01, 100.0), (0.05, 3.0), (0.1, 0.3), (0.05, 7 * 0.05), (0.6, 1.2)])
    def test_config_accepts_a_whole_number_of_steps(self, dt, t_max):
        ens = ps.seeded_ensemble(3, coupling=0.0, seed=4, freq_halfwidth=1.0)  # free flow: never stationary
        traj = ps.simulate(ens, ps.SimConfig(dt=dt, t_max=t_max, record_every=10**6))
        assert traj.times[-1] == pytest.approx(t_max, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ps.SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            ps.SimConfig(dt=2.0, t_max=1.0)
        with pytest.raises(ValueError):
            ps.SimConfig(record_every=0)


class TestDetectStationarity:
    def test_antipodal_true(self):
        assert ps.detect_stationarity(ps.OscillatorEnsemble([0.0, np.pi], [0, 0]), 1e-9)

    def test_synchronized_true(self):
        assert ps.detect_stationarity(ps.OscillatorEnsemble([1.1, 1.1, 1.1], np.zeros(3)), 1e-9)

    def test_off_equilibrium_false(self):
        # |theta_dot_1| = sin(0.1)/2 well above tol
        ens = ps.OscillatorEnsemble([0.1, 0.0], [0.0, 0.0], 1.0)
        assert not ps.detect_stationarity(ens, 1e-9)
        assert np.abs(ps.finite_n_rhs(ens)[0]) == pytest.approx(np.sin(0.1) / 2, abs=1e-14)

    def test_rotating_lock_stops_in_the_co_rotating_frame(self):
        # three identical oscillators at omega = 0.5 lock while they turn at 0.5:
        # the run stops on max|v - 0.5| < tol, and detect_stationarity agrees
        ens = ps.OscillatorEnsemble([0.0, 0.3, 0.7], [0.5, 0.5, 0.5], 1.0)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=50, record_every=10))
        assert traj.stopped_on == "stationary" and traj.times[-1] == 1980 * 0.01
        v = ps.finite_n_rhs(traj.final)
        assert np.abs(v - 0.5).max() < 1e-9 and np.abs(v).min() > 0.49  # locked, yet moving in the lab frame
        assert ps.detect_stationarity(traj.final, 1e-9) and not ps.detect_stationarity(ens, 1e-9)


class TestSeededEnsemble:
    def test_reproducible(self):
        a = ps.seeded_ensemble(10, seed=1, freq_halfwidth=0.5)
        b = ps.seeded_ensemble(10, seed=1, freq_halfwidth=0.5)
        assert np.array_equal(a.phases, b.phases)
        assert np.array_equal(a.freqs, b.freqs)

    def test_distinct_seeds_differ(self):
        a = ps.seeded_ensemble(10, seed=1)
        b = ps.seeded_ensemble(10, seed=2)
        assert not np.array_equal(a.phases, b.phases)

    def test_phases_in_range(self):
        a = ps.seeded_ensemble(1000, seed=3)
        assert np.all((a.phases >= -np.pi) & (a.phases < np.pi))

    def test_freq_stream_is_not_next_phase_stream(self):
        # with freq_halfwidth = pi, phases and frequencies map their streams
        # onto [-pi, pi) alike, so a shared stream shows as shared values
        for seed in range(5):
            ens = ps.seeded_ensemble(64, seed=seed, freq_halfwidth=np.pi)
            assert np.array_equal(ens.phases, ps.rng.uniform(seed, 64, -np.pi, np.pi))
            assert np.intersect1d(ens.freqs, ps.seeded_ensemble(64, seed=seed + 1).phases).size == 0


class TestHalfOpenRanges:
    # the seed whose first splitmix64 output, 2**64 - 1, rounds to 2**64 as a float
    TOP = 3558559446808474027
    RANGES = [(-np.pi, np.pi), (0.0, 1.0), (-0.5, 0.5), (2.0, 3.0), (-1e-300, 1e-300), (1e300, 1e301)]

    def test_top_draw_is_below_high(self):
        assert int(ps.rng.splitmix64(self.TOP, 1)[0]) == 2**64 - 1
        assert ps.rng.uniform(self.TOP, 1, -np.pi, np.pi)[0] == np.nextafter(np.pi, 0.0)
        assert ps.rng.uniform(self.TOP, 1)[0] == np.nextafter(1.0, 0.0)
        assert ps.seeded_ensemble(3, seed=self.TOP).phases[0] == np.nextafter(np.pi, 0.0)

    @pytest.mark.parametrize("low,high", RANGES)
    def test_top_draw_is_the_float_below_each_high(self, low, high):
        u = ps.rng.splitmix64(self.TOP, 1).astype(float) / 2.0**64
        assert low + (high - low) * u[0] >= high  # unclamped, it is high
        assert ps.rng.uniform(self.TOP, 1, low, high)[0] == np.nextafter(high, low)

    @pytest.mark.parametrize("low,high", RANGES)
    def test_other_draws_are_unclamped(self, low, high):
        u = ps.rng.splitmix64(7, 100_000).astype(float) / 2.0**64
        assert ps.rng.uniform(7, 100_000, low, high).tobytes() == (low + (high - low) * u).tobytes()

    @pytest.mark.parametrize("low,high", [(1.0, 1.0), (1.0, 0.0), (np.nan, 1.0), (-1e308, 1e308), (-np.inf, 0.0)])
    def test_empty_or_overflowing_range_is_refused(self, low, high):
        # a span that overflows drew inf, which the clamp to below high would make finite
        with pytest.raises(ValueError, match="low < high and a finite high - low"):
            ps.rng.uniform(0, 3, low, high)

    @pytest.mark.parametrize("halfwidth", [-0.5, -np.inf, np.nan])
    def test_freq_halfwidth_below_zero_is_refused(self, halfwidth):
        # it gave identical oscillators, as 0 does
        with pytest.raises(ValueError, match="freq_halfwidth must be >= 0"):
            ps.seeded_ensemble(10, freq_halfwidth=halfwidth)

    @pytest.mark.parametrize("halfwidth", [np.inf, 1e308])
    def test_freq_halfwidth_whose_span_overflows_is_refused(self, halfwidth):
        with pytest.raises(ValueError, match="finite high - low"):
            ps.seeded_ensemble(10, freq_halfwidth=halfwidth)

    @pytest.mark.parametrize("halfwidth", [0.0, 0.5, 2.0])
    def test_freq_halfwidth_from_zero_on_is_accepted(self, halfwidth):
        ens = ps.seeded_ensemble(64, seed=3, freq_halfwidth=halfwidth)
        assert np.all((-halfwidth <= ens.freqs) & (ens.freqs <= halfwidth))
        assert np.all(ens.freqs < halfwidth) if halfwidth > 0 else not np.any(ens.freqs)


class TestSplitmix64:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, 2**64 - 1])
    def test_matches_scalar_reference(self, seed):
        out = ps.rng.splitmix64(seed, 5000)
        assert out.dtype == np.uint64
        assert np.array_equal(out, splitmix64_reference(seed, 5000))

    def test_empty(self):
        out = ps.rng.splitmix64(7, 0)
        assert out.dtype == np.uint64 and out.shape == (0,)


class TestStationarityTolerance:
    def test_default_tolerance_stops_this_run(self):
        # the run a NaN tolerance would silently carry on to t_max
        traj = ps.simulate(ps.seeded_ensemble(10, seed=2), ps.SimConfig(dt=0.1, t_max=400.0))
        assert traj.stopped_on == "stationary"

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_non_finite_or_non_positive_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="stationarity_tol"):
            ps.SimConfig(stationarity_tol=tol)


class TestRecordEvery:
    @pytest.mark.parametrize("every", [math.nan, 1.5, 2.0, math.inf, 0, -3])
    def test_non_integer_or_non_positive_rejected(self, every):
        # NaN recorded only t = 0 and t_max, and 1.5 every 3rd step
        with pytest.raises(ValueError, match="record_every"):
            ps.SimConfig(record_every=every)

    @pytest.mark.parametrize("every", [1, 7, np.int64(7), np.int32(25)])
    def test_integers_accepted(self, every):
        cfg = ps.SimConfig(dt=0.1, t_max=1.0, record_every=every)
        traj = ps.simulate(ps.seeded_ensemble(3, seed=1, freq_halfwidth=0.5), cfg)
        assert list(np.round(traj.times / 0.1)) == sorted({*range(0, 10, int(every)), 10})

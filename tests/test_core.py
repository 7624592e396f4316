import numpy as np
import pytest

import phasesync as ps
from reference import pairwise_rhs


def rand_ensemble(seed, n=8, coupling=1.0, freq_halfwidth=0.0):
    return ps.seeded_ensemble(n, coupling=coupling, seed=seed, freq_halfwidth=freq_halfwidth)


def pairwise_potential(ens):
    """O(N^2) oracle: U = (1/2N) sum_{h,j} cos(theta_h - theta_j)."""
    diff = ens.phases[:, None] - ens.phases[None, :]
    return float(np.sum(np.cos(diff)) / (2.0 * ens.n))


class TestOrderParameter:
    def test_identity_pair(self):
        op = ps.order_parameter(ps.OscillatorEnsemble([0.0, 0.0], [0.0, 0.0]))
        assert op.r == pytest.approx(1.0, abs=1e-15)
        assert op.phi == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_pair_incoherent(self):
        op = ps.order_parameter(ps.OscillatorEnsemble([0.0, np.pi], [0.0, 0.0]))
        assert op.r < 1e-15
        assert op.phi is None

    def test_four_symmetric(self):
        op = ps.order_parameter(
            ps.OscillatorEnsemble([0.0, np.pi / 2, np.pi, 3 * np.pi / 2], np.zeros(4))
        )
        assert op.r < 1e-15

    def test_three_phase_oracle(self):
        # frozen from a 50-digit complex-sum evaluation
        op = ps.order_parameter(ps.OscillatorEnsemble([0.3, -0.1, 0.5], np.zeros(3)))
        assert op.r == pytest.approx(0.96913055957432565, abs=1e-14)
        assert op.phi == pytest.approx(0.23434454547696679, abs=1e-14)

    def test_invariant_under_2pi_shifts(self):
        ens = rand_ensemble(3)
        turns = np.array([1, -2, 3, 0, 5, -1, 2, 4])
        shifted = ps.OscillatorEnsemble(ens.phases + 2 * np.pi * turns, ens.freqs, ens.coupling)
        a, b = ps.order_parameter(ens), ps.order_parameter(shifted)
        assert a.r == pytest.approx(b.r, abs=1e-12)
        assert a.phi == pytest.approx(b.phi, abs=1e-12)

    def test_rotation_equivariance(self):
        # r invariant, phi equivariant, over 100 ensembles x 10 rotations
        shifts = ps.rng.uniform(99, 10, -np.pi, np.pi)
        for seed in range(100):
            ens = rand_ensemble(seed)
            base = ps.order_parameter(ens)
            for c in shifts:
                op = ps.order_parameter(ps.OscillatorEnsemble(ens.phases + c, ens.freqs, ens.coupling))
                assert op.r == pytest.approx(base.r, abs=1e-12)
                if base.phi is not None:
                    expect = ps.wrap_angle(base.phi + c)
                    assert ps.circle_distance(op.phi, expect) < 1e-10


class TestScalarWrap:
    """core._wrap, the wrap of one recorded phi in Python floats, is
    wrap_angle bitwise: the same sum, then the same fmod-and-sign rule."""

    def test_equals_wrap_angle_bitwise(self):
        rng = np.random.default_rng(20)
        two_pi = 2.0 * np.pi
        xs = [*rng.uniform(-4.0 * np.pi, 4.0 * np.pi, 50_000), *rng.uniform(-1e6, 1e6, 50_000),
              np.pi, -np.pi, 0.0, -0.0, 1e16, -1e16, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0),
              *(k * two_pi for k in range(-8, 9)), *(k * two_pi - np.pi for k in range(-8, 9))]
        got = np.array([ps.core._wrap(float(x)) for x in xs])
        assert got.tobytes() == ps.wrap_angle(np.array(xs)).tobytes()

    def test_just_below_an_odd_multiple_of_pi_wraps_below_pi(self):
        # (x + pi) mod 2 pi is a hair below 2 pi there and rounds to it
        xs = [np.nextafter((2 * k + 1) * np.pi, -np.inf) for k in range(-9, 9)]
        got = ps.wrap_angle(np.array(xs))
        assert np.all((-np.pi <= got) & (got < np.pi)) and got[8] == np.nextafter(np.pi, 0.0)  # k = -1: x below -pi
        assert got.tobytes() == np.array([ps.core._wrap(float(x)) for x in xs]).tobytes()

    @pytest.mark.parametrize("x,want", [
        (-np.pi, -np.pi), (np.pi, -np.pi), (np.nextafter(-np.pi, -np.inf), np.nextafter(np.pi, 0.0)),
        (np.nextafter(np.pi, 0.0), -np.pi),  # x + pi rounds to 2 pi
        (np.nextafter(-np.pi, 0.0), np.nextafter(-np.pi, 0.0)), (0.0, 0.0), (-0.0, 0.0),
        (2 * np.pi, 0.0), (-2 * np.pi, 0.0), (3 * np.pi, -np.pi),
    ], ids=["-pi", "pi", "below-pi", "below+pi", "above-pi", "zero", "minus-zero", "2pi", "-2pi", "3pi"])
    def test_exact_values_at_the_ends(self, x, want):
        for got in (ps.wrap_angle(np.array([x]))[0], ps.core._wrap(float(x))):
            assert np.array(got).tobytes() == np.array(want).tobytes() and -np.pi <= got < np.pi

    def test_recorded_phi_is_wrapped_atan2(self):
        for x, y in [(1.0, 0.0), (-1.0, 0.0), (-1.0, -0.0), (0.3, -0.2), (-0.5, 1e-300)]:
            phi = ps.OrderParameter.from_dots(x, y).phi
            assert type(phi) is float
            assert np.float64(phi).tobytes() == np.float64(ps.wrap_angle(np.arctan2(y, x))).tobytes()


class TestFiniteNRhs:
    def test_synchronized_fixed_point(self):
        ens = ps.OscillatorEnsemble(np.full(5, 1.3), np.zeros(5))
        assert np.max(np.abs(ps.finite_n_rhs(ens))) < 1e-15

    def test_antipodal_stationary(self):
        ens = ps.OscillatorEnsemble([0.0, np.pi], [0.0, 0.0], 1.0)
        assert np.max(np.abs(ps.finite_n_rhs(ens))) < 1e-15

    def test_three_oscillator_reduced_form(self):
        # (delta, -delta, pi) reduces to d(delta)/dt = (2/3) sin d (1/2 - cos d)
        for delta in (0.3, 0.9, 1.5, 2.5):
            ens = ps.OscillatorEnsemble([delta, -delta, np.pi], np.zeros(3))
            rhs = pairwise_rhs(ens)
            assert rhs[0] == pytest.approx(ps.three_oscillator_rate(delta), abs=1e-14)
            assert rhs[1] == pytest.approx(-ps.three_oscillator_rate(delta), abs=1e-14)
            assert rhs[2] == pytest.approx(0.0, abs=1e-14)

    def test_both_forms_agree(self):
        for seed in range(50):
            ens = rand_ensemble(seed, n=11, coupling=1.7, freq_halfwidth=0.4)
            if ps.order_parameter(ens).r > ps.R_MIN:
                assert np.max(np.abs(ps.finite_n_rhs(ens) - pairwise_rhs(ens))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 10, 257])
    @pytest.mark.parametrize("coupling", [0.0, 0.8])
    def test_matches_pairwise_rhs(self, n, coupling):
        ens = rand_ensemble(40 + n, n=n, coupling=coupling, freq_halfwidth=0.5)
        assert np.max(np.abs(ps.finite_n_rhs(ens) - pairwise_rhs(ens))) < 1e-13

    def test_rhs_sum_equals_freq_sum(self):
        for seed in range(20):
            ens = rand_ensemble(seed, n=9, freq_halfwidth=1.0)
            assert np.sum(ps.finite_n_rhs(ens)) == pytest.approx(np.sum(ens.freqs), abs=1e-12)


class TestPotential:
    def test_all_equal(self):
        ens = ps.OscillatorEnsemble(np.full(5, 0.7), np.zeros(5))
        assert ps.potential_u(ens) == pytest.approx(2.5, abs=1e-12)

    def test_antipodal_zero(self):
        ens = ps.OscillatorEnsemble([0.0, np.pi], np.zeros(2))
        assert ps.potential_u(ens) == pytest.approx(0.0, abs=1e-12)

    def test_double_sum_oracle(self):
        # frozen from a 50-digit double-sum evaluation
        ens = ps.OscillatorEnsemble([0.2, 1.1, -0.4], np.zeros(3))
        assert ps.potential_u(ens) == pytest.approx(1.0058942616160152, abs=1e-14)

    def test_matches_pairwise_cos_sum(self):
        for seed in range(30):
            ens = rand_ensemble(seed, n=3 + seed, freq_halfwidth=0.5)
            assert ps.potential_u(ens) == pytest.approx(pairwise_potential(ens), rel=1e-12, abs=1e-13)
        antipodal = ps.OscillatorEnsemble([0.0, np.pi, 1.0, 1.0 + np.pi], np.zeros(4))
        assert ps.potential_u(antipodal) == pytest.approx(pairwise_potential(antipodal), abs=1e-14)

    def test_equals_half_n_r_squared(self):
        for seed in range(30):
            ens = rand_ensemble(seed, n=13)
            r = ps.order_parameter(ens).r
            assert ps.potential_u(ens) == pytest.approx(ens.n / 2 * r * r, rel=1e-10)

    def test_gradient_identity(self):
        # identical oscillators, K=1: rhs is the central-difference gradient of U
        h = 1e-5
        for seed in range(10):
            ens = rand_ensemble(seed, n=min(20, 5 + seed))
            rhs = ps.finite_n_rhs(ens)
            for i in range(ens.n):
                e = np.zeros(ens.n)
                e[i] = h
                grad = (ps.potential_u(ps.OscillatorEnsemble(ens.phases + e, ens.freqs, ens.coupling))
                        - ps.potential_u(ps.OscillatorEnsemble(ens.phases - e, ens.freqs, ens.coupling))) / (2 * h)
                assert rhs[i] == pytest.approx(grad, abs=1e-6)


class TestMeanPhase:
    def test_simple_values(self):
        assert ps.mean_phase(ps.OscillatorEnsemble([1.0, -1.0], np.zeros(2))) == 0.0
        ens = ps.OscillatorEnsemble([0.0, np.pi / 2, np.pi], np.zeros(3))
        assert ps.mean_phase(ens) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_is_what_a_run_records(self):
        # the run's 2-row dot, not np.mean, which differed in the last bit on 158 of these
        for seed in range(200):
            traj = ps.simulate(ps.seeded_ensemble(37, seed=seed, freq_halfwidth=0.4),
                               ps.SimConfig(dt=0.01, t_max=1, record_every=50))
            assert ps.mean_phase(traj.final) == traj.mean_phase_series[-1], seed

    def test_conserved_along_zero_mean_runs(self):
        ens = ps.seeded_ensemble(10, seed=5, freq_halfwidth=0.3, zero_mean=True)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=20, record_every=10))
        drift = np.abs(traj.mean_phase_series - traj.mean_phase_series[0])
        assert np.max(drift) < 1e-6


class TestRDotIdentical:
    def test_synchronized_zero(self):
        ens = ps.OscillatorEnsemble(np.full(4, 0.2), np.zeros(4))
        assert ps.r_dot_identical(ens) == pytest.approx(0.0, abs=1e-12)

    def test_undefined_phi_raises(self):
        ens = ps.OscillatorEnsemble([0.0, np.pi], np.zeros(2))
        with pytest.raises(ps.UndefinedPhaseError):
            ps.r_dot_identical(ens)

    def test_strictly_positive_off_equilibrium(self):
        for seed in range(20):
            ens = rand_ensemble(seed, n=7)
            if not ps.detect_stationarity(ens, 1e-9):
                assert ps.r_dot_identical(ens) > 0.0

    def test_matches_finite_difference(self):
        # central difference of R along the RK4 flow, h = 1e-4
        h = 1e-4
        ens = ps.OscillatorEnsemble([0.5, -0.5, np.pi], np.zeros(3))
        fwd = ps.order_parameter(ps.step_rk4(ens, h)).r
        bwd = ps.order_parameter(ps.step_rk4(ens, -h)).r
        assert ps.r_dot_identical(ens) == pytest.approx((fwd - bwd) / (2 * h), rel=1e-6)

    def test_coupling_scales(self):
        ens = rand_ensemble(4, n=6, coupling=2.5)
        ref = rand_ensemble(4, n=6, coupling=1.0)
        assert ps.r_dot_identical(ens) == pytest.approx(2.5 * ps.r_dot_identical(ref), rel=1e-12)


class TestRPhiDotNonidentical:
    def test_reduces_to_identical_formula(self):
        ens = rand_ensemble(2, n=9)
        meas = ps.PhaseMeasure.from_ensemble(ens)
        r_dot, _ = ps.r_phi_dot_nonidentical(meas, ens.coupling)
        assert r_dot == pytest.approx(ps.r_dot_identical(ens), rel=1e-12)

    def test_single_atom_rigid_rotation(self):
        meas = ps.PhaseMeasure.initial([1.0], [0.0], [0.7], coupling=1.0, has_atoms=True)
        r_dot, r_phi_dot = ps.r_phi_dot_nonidentical(meas, 1.0)
        assert r_dot == pytest.approx(0.0, abs=1e-14)
        assert r_phi_dot == pytest.approx(0.7, abs=1e-14)

    def test_matches_finite_difference_along_flow(self):
        # central difference of (R, phi) across two RK4 steps of size h=1e-4
        h = 1e-4
        m0 = ps.discretize(
            ps.ProductSpec(ps.Uniform(0.2, 2.0), ps.Uniform(0, 0.4), 25), 40
        )
        m1 = ps.kinetic_step(m0, h)
        m2 = ps.kinetic_step(m1, h)
        ops = [ps.weighted_order_parameter(m.weights, m.thetas) for m in (m0, m1, m2)]
        r_dot, r_phi_dot = ps.r_phi_dot_nonidentical(m1, m1.coupling)
        fd_r = (ops[2].r - ops[0].r) / (2 * h)
        fd_phi = ps.wrap_angle(ops[2].phi - ops[0].phi) / (2 * h)
        assert r_dot == pytest.approx(fd_r, rel=1e-6, abs=1e-10)
        assert r_phi_dot == pytest.approx(ops[1].r * fd_phi, rel=1e-6, abs=1e-10)

    def test_undefined_phi_raises(self):
        meas = ps.PhaseMeasure.initial([0.5, 0.5], [0.0, np.pi], [0.1, -0.1], has_atoms=True)
        with pytest.raises(ps.UndefinedPhaseError):
            ps.r_phi_dot_nonidentical(meas, 1.0)


class TestEnsembleValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ps.OscillatorEnsemble([0.0, 1.0], [0.0])

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one oscillator"):
            ps.OscillatorEnsemble([], [])

    def test_negative_coupling(self):
        with pytest.raises(ValueError):
            ps.OscillatorEnsemble([0.0], [0.0], -1.0)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            ps.OscillatorEnsemble([np.nan], [0.0])

    def test_zero_mean_helper(self):
        ens = ps.OscillatorEnsemble([0.1, 0.2], [1.0, 3.0])
        shifted = ps.zero_mean_frequencies(ens)
        assert np.mean(shifted.freqs) == pytest.approx(0.0, abs=1e-15)


def cos_sin_field(thetas, omegas, weights, coupling):
    """field with np.cos/np.sin at every particle count: the oracle of the
    half-angle path. Its dots are one 2-row dot, the form field takes them in."""
    c = np.cos(thetas)
    s = np.sin(thetas)
    kx, ky = coupling * np.stack([c, s]).dot(weights)
    return omegas + ky * c - kx * s, -kx * c - ky * s


def half_angle_inputs(n, seed):
    """n phases: kpi/2 and its neighbours one ulp away, then an arc of width 1
    shifted by random multiples of 2pi over [-1e3, 1e3], so that R > 0.7 and
    an error in cos or sin reaches the velocity undamped; frequencies and
    positive weights summing to 1."""
    k = np.arange(-20, 21) * (np.pi / 2)
    edge = np.concatenate([k, np.nextafter(k, np.inf), np.nextafter(k, -np.inf)])
    rng = np.random.default_rng(seed)
    m = n - edge.size
    arc = rng.uniform(-0.5, 0.5, m) + 2 * np.pi * rng.integers(-159, 160, m)
    thetas = np.concatenate([edge, arc])
    w = rng.uniform(0.5, 1.5, n)
    return thetas, rng.uniform(-1.0, 1.0, n), w / w.sum()


class TestHalfAngleField:
    CUT = ps.core.HALF_ANGLE_MIN

    @pytest.mark.parametrize("n", [CUT, 4096])
    def test_matches_cos_sin_oracle(self, n):
        args = half_angle_inputs(n, n)
        for got, want in zip(ps.field(*args, 1.0), cos_sin_field(*args, 1.0)):
            assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("n", [CUT - 1, CUT, 4096])
    def test_trig_is_cos_and_sin_on_both_sides_of_cut(self, n):
        # the sin row holds sin itself, not sin over a path factor; 20 seeds
        # measure 3.3e-16 (cos) and 1.1e-16 (sin) on the half-angle path
        c, s = np.empty((2, n))
        for seed in range(20):
            thetas = half_angle_inputs(n, seed)[0]
            ps.core._trig(ps.core.trig_scale(n) * thetas, c, s)
            assert np.max(np.abs(c - np.cos(thetas))) <= 1e-15
            assert np.max(np.abs(s - np.sin(thetas))) <= 1e-15

    def test_below_cut_is_cos_sin_bitwise(self):
        args = half_angle_inputs(self.CUT - 1, 7)
        for got, want in zip(ps.field(*args, 1.0), cos_sin_field(*args, 1.0)):
            assert np.array_equal(got, want)

    def test_both_sides_of_cut_agree(self):
        # one zero-weight particle more takes the same phases across the cut
        thetas, omegas, w = half_angle_inputs(self.CUT, 11)
        below = ps.field(thetas[:-1], omegas[:-1], w[:-1] / w[:-1].sum(), 1.0)
        at = ps.field(thetas, omegas, np.append(w[:-1] / w[:-1].sum(), 0.0), 1.0)
        for lo, hi in zip(below, at):
            assert np.max(np.abs(lo - hi[:-1])) <= 1e-14

    def test_non_finite_phase_gives_nan(self):
        thetas = np.linspace(-3.0, 3.0, self.CUT)
        thetas[[0, 1, 2]] = [np.inf, -np.inf, np.nan]
        with np.errstate(invalid="ignore"):
            v = ps.field(thetas, np.zeros(self.CUT), np.full(self.CUT, 1.0 / self.CUT), 1.0, False)
        assert np.isnan(v).all()

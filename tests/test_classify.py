import dataclasses

import numpy as np
import pytest

import phasesync as ps
from reference import rk4_step


def clustered_ensemble(n, k, phi_star, jitter=0.0, seed=0):
    """(n-k, k) configuration: n-k phases at phi_star, k at the antipode."""
    phases = np.full(n, phi_star)
    phases[:k] += np.pi
    if jitter:
        phases = phases + ps.rng.uniform(seed, n, -jitter, jitter)
    return ps.OscillatorEnsemble(phases, np.zeros(n), 1.0)


class TestClassifyFinite:
    def test_full_sync(self):
        cls = ps.classify_finite(ps.OscillatorEnsemble(np.full(5, 1.3), np.zeros(5)))
        assert cls.kind == "clustered"
        assert cls.k == 0 and cls.n_at_phi == 5
        assert cls.phi_star == pytest.approx(1.3, abs=1e-9)

    def test_two_one_state(self):
        ens = ps.OscillatorEnsemble([0.0, 0.0, np.pi], np.zeros(3))
        cls = ps.classify_finite(ens)
        assert cls.kind == "clustered"
        assert cls.k == 1 and cls.n_at_phi == 2
        assert cls.phi_star == pytest.approx(0.0, abs=1e-9)
        assert ps.order_parameter(ens).r == pytest.approx(1.0 - 2 * 1 / 3, abs=1e-12)

    def test_square_incoherent(self):
        ens = ps.OscillatorEnsemble([0.0, np.pi / 2, np.pi, 3 * np.pi / 2], np.zeros(4))
        assert ps.classify_finite(ens).kind == "incoherent"

    def test_generic_spread_not_stationary(self):
        ens = ps.OscillatorEnsemble([0.0, 0.5, 1.0], np.zeros(3))
        assert ps.classify_finite(ens).kind == "not_stationary"

    def test_angle_tol_domain(self):
        ens = ps.OscillatorEnsemble([0.0], [0.0])
        with pytest.raises(ValueError):
            ps.classify_finite(ens, angle_tol=1.0)

    def test_constructed_states_recovered(self):
        # all N <= 12, all k < N/2, 50 random phi_star
        phis = ps.rng.uniform(17, 50, -np.pi, np.pi)
        for n in range(2, 13):
            for k in range((n - 1) // 2 + 1):
                for phi_star in phis[:: max(1, (n * 3) // 12)]:
                    ens = clustered_ensemble(n, k, phi_star)
                    cls = ps.classify_finite(ens)
                    assert cls.kind == "clustered"
                    assert cls.k == k and cls.n_at_phi == n - k
                    assert ps.circle_distance(cls.phi_star, phi_star) < 1e-9
                    assert ps.detect_stationarity(ens, 1e-9)

    def test_r_equals_one_minus_two_k_over_n(self):
        for n, k in [(5, 1), (7, 2), (10, 4)]:
            ens = clustered_ensemble(n, k, 0.4)
            assert ps.order_parameter(ens).r == pytest.approx(1 - 2 * k / n, abs=1e-12)

    def test_incoherent_kgon_stationary(self):
        n = 6
        ens = ps.OscillatorEnsemble(2 * np.pi * np.arange(n) / n, np.zeros(n))
        assert ps.classify_finite(ens).kind == "incoherent"
        assert ps.detect_stationarity(ens, 1e-9)


class TestClassifyMeasure:
    def test_single_atom(self):
        meas = ps.PhaseMeasure.initial([1.0], [0.7], [0.0], has_atoms=True)
        cls = ps.classify_measure(meas)
        assert cls.kind == "clustered"
        assert cls.c1 == pytest.approx(1.0)
        assert cls.c2 == pytest.approx(0.0)

    def test_two_atoms_c1_c2(self):
        meas = ps.PhaseMeasure.initial([0.7, 0.3], [0.0, np.pi], [0.0, 0.0], has_atoms=True)
        cls = ps.classify_measure(meas)
        assert cls.kind == "clustered"
        assert cls.c1 == pytest.approx(0.7)
        assert cls.c2 == pytest.approx(0.3)
        assert ps.weighted_order_parameter(meas.weights, meas.thetas).r == pytest.approx(0.4, abs=1e-12)

    def test_uniform_circle_incoherent(self):
        meas = ps.discretize(ps.Uniform(0.0, np.pi), 256)
        assert ps.classify_measure(meas).kind == "incoherent"

    def test_tie_is_not_stationary(self):
        # c1 = c2 would violate the strict majority requirement; build a
        # tie plus a small symmetric remainder so R > 0
        meas = ps.PhaseMeasure.initial(
            [0.45, 0.45, 0.1], [0.0, np.pi, 0.5], [0.0, 0.0, 0.0], has_atoms=True
        )
        assert ps.classify_measure(meas).kind == "not_stationary"

    def test_spread_mass_not_stationary(self):
        meas = ps.discretize(ps.Uniform(0.0, 1.0), 64)
        assert ps.classify_measure(meas).kind == "not_stationary"


class TestOneClassifier:
    """classify_finite is classify_measure of the equal-weight measure with a
    mass_tol below 1/N; both check the same tolerance domains."""

    THREE_ATOMS = ps.PhaseMeasure.initial([0.5, 0.25, 0.25], [0.0, 1.0, -1.0], [0.0] * 3, has_atoms=True)

    @pytest.mark.parametrize("mass_tol", [np.nan, 1.0, np.inf, 0.0, -1e-3])
    def test_mass_tol_domain(self, mass_tol):
        # at a NaN, 1 or inf mass_tol the coverage test c1 + c2 <= 1 - mass_tol
        # never fails, so this measure, with c1 = 0.5, would count as clustered
        with pytest.raises(ValueError, match="mass_tol"):
            ps.classify_measure(self.THREE_ATOMS, mass_tol=mass_tol)

    @pytest.mark.parametrize("angle_tol", [2.0, np.pi / 4, np.nan, 0.0])
    def test_angle_tol_domain(self, angle_tol):
        # at angle_tol = 2 the two arcs overlap and count the +-1 atoms twice
        with pytest.raises(ValueError, match="angle_tol"):
            ps.classify_measure(self.THREE_ATOMS, angle_tol=angle_tol)
        with pytest.raises(ValueError, match="angle_tol"):
            ps.classify_finite(ps.OscillatorEnsemble([0.0, 1.0, -1.0], np.zeros(3)), angle_tol=angle_tol)

    def test_three_atoms_not_stationary(self):
        assert ps.classify_measure(self.THREE_ATOMS).kind == "not_stationary"
        # c1 = 0.5 covers all but 0.5 of the mass: clustered only if mass_tol > 0.5
        assert ps.classify_measure(self.THREE_ATOMS, angle_tol=0.7, mass_tol=0.5).kind == "not_stationary"
        assert ps.classify_measure(self.THREE_ATOMS, angle_tol=0.7, mass_tol=0.6).kind == "clustered"

    @pytest.mark.parametrize("n,k,jitter", [(1, 0, 0.0), (3, 1, 0.0), (9, 4, 1e-4), (12, 2, 2e-3), (7, 0, 0.5)])
    def test_finite_is_the_equal_weight_measure(self, n, k, jitter):
        ens = clustered_ensemble(n, k, 0.9, jitter=jitter, seed=n)
        fin = ps.classify_finite(ens)
        meas = ps.classify_measure(ps.PhaseMeasure.from_ensemble(ens), mass_tol=0.5 / n)
        assert dataclasses.replace(fin, n_at_phi=None, k=None) == meas
        if fin.kind == "clustered":
            assert (fin.n_at_phi, fin.k) == (n - k, k)
            assert fin.c1 == pytest.approx((n - k) / n, abs=1e-15) and fin.c2 == pytest.approx(k / n, abs=1e-15)


class TestThreeOscillator:
    def test_below_threshold_to_zero(self):
        d = ps.three_oscillator_limit(np.pi / 3 - 0.01, t_max=200)
        assert abs(d) < 1e-3

    def test_at_threshold_fixed(self):
        d = ps.three_oscillator_limit(np.pi / 3, t_max=50)
        assert d == pytest.approx(np.pi / 3, abs=1e-12)

    def test_above_threshold_to_pi(self):
        d = ps.three_oscillator_limit(np.pi / 3 + 0.01, t_max=200)
        assert abs(d - np.pi) < 1e-3

    @pytest.mark.parametrize("delta0", [1.0, np.pi / 3 - 0.01, np.pi / 3, np.pi / 3 + 0.01, 2.5])
    def test_matches_rk4_of_the_reduced_rate(self, delta0):
        # the full system's run against RK4 of the reduced ODE to t = 200;
        # the largest measured gap is 1.0e-9, the stationarity tolerance
        d = delta0
        for _ in range(20000):
            d = rk4_step(ps.three_oscillator_rate, d, 0.01)
        assert ps.three_oscillator_limit(delta0) == pytest.approx(d, abs=1e-8)

    def test_short_horizon_warns(self):
        with pytest.warns(UserWarning):
            ps.three_oscillator_limit(np.pi / 3 + 0.01, t_max=1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ps.three_oscillator_limit(0.0)
        with pytest.raises(ValueError):
            ps.three_oscillator_limit(3.5)

    def test_separating_example_lands_in_different_classes(self):
        # the symmetric family (d0, -d0, pi) has pairwise-distinct phases;
        # the two sides of the threshold reach different cluster types.
        # Horizon 40: the reduced dynamics has converged (delta ~ e^{-t/3})
        # while roundoff asymmetry, amplified by the instability of (2,1),
        # is still far below the classification tolerance.
        for sign, expect_k in [(-1, 1), (+1, 0)]:
            d0 = np.pi / 3 + sign * 0.05
            ens = ps.OscillatorEnsemble([d0, -d0, np.pi], np.zeros(3))
            traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=40, record_every=25))
            cls = ps.classify_finite(traj.final)
            assert cls.kind == "clustered"
            assert cls.k == expect_k

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

import phasesync as ps
from phasesync.stationary import ROOT_TOL


def uniform_integral_closed_form(gamma, a):
    """int sqrt(a^2 - w^2) on [-gamma, gamma] against the uniform pdf,
    from the antiderivative (w sqrt(a^2-w^2) + a^2 arcsin(w/a))/2."""
    return (gamma * np.sqrt(a * a - gamma * gamma) + a * a * np.arcsin(gamma / a)) / (2 * gamma)


def two_atom_roots(k, omega0):
    """Analytic roots of K R^2 = sqrt((KR)^2 - omega0^2): quadratic in R^2."""
    disc = 1 - 4 * omega0**2 / k**2
    if disc < 0:
        return []
    return sorted(np.sqrt((1 + s * np.sqrt(disc)) / 2) for s in (-1, 1))


def tgauss_kc_oracle(mean, sigma, cut):
    """min over a >= max|omega| of a^2 / I(a), I by adaptive quad in omega."""
    norm = math.erf(cut / (sigma * math.sqrt(2))) * sigma * math.sqrt(2 * math.pi)
    wmax = abs(mean) + cut

    def h(a):
        f = lambda w: math.sqrt(max(a * a - w * w, 0.0)) * math.exp(-0.5 * ((w - mean) / sigma) ** 2) / norm
        return a * a / quad(f, mean - cut, mean + cut, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    res = minimize_scalar(h, bounds=(wmax, 4 * wmax), method="bounded", options={"xatol": 1e-12})
    return min(h(wmax), res.fun)


def pdf_v040(g, omega):
    """The densities as v0.4.0 evaluated them, kept as the oracle."""
    omega = np.asarray(omega)
    if isinstance(g, ps.Uniform):
        inside = (omega >= g.center - g.halfwidth) & (omega <= g.center + g.halfwidth)
        return np.where(inside, 1.0 / (2.0 * g.halfwidth), 0.0)
    z = (omega - g.mean) / g.sigma
    base = np.exp(-0.5 * z * z) / (g.sigma * math.sqrt(2.0 * math.pi))
    inside = np.abs(omega - g.mean) <= g.cut
    return np.where(inside, base / math.erf(g.cut / (g.sigma * math.sqrt(2.0))), 0.0)


# off-centre laws with cut/sigma <= 2: the oracle's exponent stays O(1), so
# the two formulas agree to rounding in the last bits
PDF_LAWS = [ps.Uniform(0.3, 0.45), ps.TruncatedGaussian(0.1, 0.3, 0.6), ps.TruncatedGaussian(-0.2, 0.25, 0.5)]

ONSET_LAWS = [
    ps.Uniform(0, 0.5),
    ps.TruncatedGaussian(0, 0.3, 0.6),
    ps.TruncatedGaussian(0, 0.01, 0.3),
    ps.Discrete((-0.3, 0.3), (0.5, 0.5)),
    ps.Discrete((-0.3, 0.1, 0.3), (0.3, 0.3, 0.4)),
]


class TestFrequencyDistributions:
    def test_uniform_mass_and_pdf(self):
        g = ps.Uniform(0.0, 0.5)
        assert g.expect(lambda w: np.ones_like(w)) == pytest.approx(1.0, abs=1e-12)
        assert g.pdf(0.0) == pytest.approx(1.0)
        assert g.pdf(0.6) == 0.0
        assert g.support() == (-0.5, 0.5)

    def test_truncated_gaussian_mass(self):
        g = ps.TruncatedGaussian(0.0, 0.3, 0.8)
        assert g.expect(lambda w: np.ones_like(w)) == pytest.approx(1.0, abs=1e-10)
        nodes, weights = g.quadrature(200)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(nodes) <= 0.8)

    @pytest.mark.parametrize("g", PDF_LAWS, ids=repr)
    def test_pdf_scalar_path_matches_array_path(self, g):
        lo, hi = g.support()
        ends = [lo, hi]
        outside = [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), lo - 10.0, hi + 10.0]
        interior = list(np.linspace(lo, hi, 201)[1:-1])
        for x in interior + ends + outside:
            want = g.pdf(np.array([x]))[0]
            for scalar in (float(x), np.float64(x)):
                got = g.pdf(scalar)
                assert type(got) is float
                assert got == want, (x, got, want)
            assert (want > 0.0) == (x not in outside)

    @pytest.mark.parametrize("g", PDF_LAWS, ids=repr)
    def test_pdf_matches_v040_formula(self, g):
        lo, hi = g.support()
        omega = np.linspace(lo - 0.2, hi + 0.2, 10_000)
        want = pdf_v040(g, omega)
        for got in (g.pdf(omega), np.array([g.pdf(float(w)) for w in omega])):
            assert np.array_equal(got > 0.0, want > 0.0)
            assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_cached_constants_leave_equality_hash_and_replace(self):
        g = ps.TruncatedGaussian(0.1, 0.3, 0.6)
        twin = ps.TruncatedGaussian(0.1, 0.3, 0.6)
        assert g == twin and hash(g) == hash(twin) and {g: 1}[twin] == 1
        assert repr(g) == "TruncatedGaussian(mean=0.1, sigma=0.3, cut=0.6)"
        assert [f.name for f in dataclasses.fields(g)] == ["mean", "sigma", "cut"]
        assert g != ps.TruncatedGaussian(0.1, 0.3, 0.7)
        omega = np.linspace(-1.0, 1.0, 101)
        for law, change in ((g, {"sigma": 0.2, "cut": 0.4}), (ps.Uniform(0.3, 0.45), {"halfwidth": 0.2})):
            moved = dataclasses.replace(law, **change)
            fresh = type(law)(**{**dataclasses.asdict(law), **change})
            assert moved == fresh and moved.support() == fresh.support() != law.support()
            assert np.array_equal(moved.pdf(omega), fresh.pdf(omega))
            assert moved.pdf(0.3) == fresh.pdf(0.3) != law.pdf(0.3)

    def test_discrete_expect(self):
        g = ps.Discrete((-0.3, 0.3), (0.5, 0.5))
        assert g.expect(lambda w: w * w) == pytest.approx(0.09, abs=1e-15)
        assert g.max_abs_omega == 0.3

    def test_discrete_validation(self):
        with pytest.raises(ValueError):
            ps.Discrete((0.0, 1.0), (0.6, 0.6))

    def test_dirac(self):
        g = ps.Dirac(0.2)
        assert g.expect(lambda w: w) == pytest.approx(0.2)
        assert g.max_abs_omega == 0.2


class TestSelfConsistencyRoots:
    def test_dirac_root_is_one(self):
        for k in (0.5, 1.0, 3.0):
            res = ps.self_consistency_roots(ps.Dirac(0.0), k)
            assert res.roots == [pytest.approx(1.0, abs=1e-12)]
            assert res.largest == pytest.approx(1.0, abs=1e-12)
            assert res.k_supercritical

    def test_uniform_closed_form_residual(self):
        gamma, k = 0.5, 1.2
        res = ps.self_consistency_roots(ps.Uniform(0, gamma), k)
        assert res.k_supercritical
        for r in res.roots:
            a = k * r
            # closed-form antiderivative vs adaptive quadrature
            closed = uniform_integral_closed_form(gamma, a)
            numeric, _ = quad(lambda w: np.sqrt(a * a - w * w) / (2 * gamma), -gamma, gamma,
                              epsabs=1e-13, epsrel=1e-13)
            assert closed == pytest.approx(numeric, abs=1e-10)
            assert closed - k * r * r == pytest.approx(0.0, abs=1e-8)

    def test_two_atom_analytic(self):
        k, omega0 = 1.0, 0.3
        res = ps.self_consistency_roots(ps.Discrete((-omega0, omega0), (0.5, 0.5)), k)
        expect = two_atom_roots(k, omega0)
        assert len(res.roots) == 2
        for got, want in zip(res.roots, expect):
            assert got == pytest.approx(want, abs=1e-10)
        assert res.largest == pytest.approx(max(expect), abs=1e-10)

    def test_subcritical_empty_is_normal(self):
        # admissible domain non-empty (max|omega|/K < 1) but below K_c
        res = ps.self_consistency_roots(ps.Uniform(0, 0.5), 0.55)
        assert res.roots == []
        assert res.largest is None
        assert not res.k_supercritical

    def test_support_too_wide_rejected(self):
        with pytest.raises(ValueError):
            ps.self_consistency_roots(ps.Uniform(0, 2.0), 1.0)

    def test_residual_bound_invariant(self):
        for g, k in [
            (ps.Uniform(0, 0.4), 1.0),
            (ps.TruncatedGaussian(0, 0.2, 0.5), 1.0),
            (ps.Discrete((-0.2, 0.1, 0.3), (0.3, 0.3, 0.4)), 1.5),
        ]:
            res = ps.self_consistency_roots(g, k)
            for r in res.roots:
                assert abs(ps.self_consistency_residual(g, k, r)) < ROOT_TOL
                # support condition K R >= max|omega|
                assert k * r >= g.max_abs_omega - 1e-12

    def test_near_onset_uniform_root(self):
        gamma, k = 0.5, (2 / np.pi) * (1 + 1e-6)
        closed = lambda r: uniform_integral_closed_form(gamma, k * r) - k * r * r
        oracle = brentq(closed, gamma / k, 0.79, xtol=1e-15, rtol=1e-15)
        res = ps.self_consistency_roots(ps.Uniform(0, gamma), k)
        assert oracle == pytest.approx(0.7854669192, abs=1e-10)
        assert res.roots == [pytest.approx(oracle, abs=1e-10)]

    @pytest.mark.parametrize("g", ONSET_LAWS, ids=repr)
    def test_roots_appear_at_kc(self, g):
        kc = ps.critical_coupling(g)
        assert ps.self_consistency_roots(g, kc * (1 + 1e-6)).k_supercritical
        assert ps.self_consistency_roots(g, kc * (1 - 1e-6)).roots == []

    def test_generalized_residual_specializes(self):
        g = ps.Uniform(0, 0.4)
        for r in (0.5, 0.8, 1.0):
            assert ps.generalized_residual(g, 1.0, r) == ps.self_consistency_residual(g, 1.0, r)

    def test_generalized_residual_with_minus_branch(self):
        g = ps.Uniform(0, 0.4)
        full = ps.generalized_residual(g, 1.0, 0.9)
        mixed = ps.generalized_residual(g, 1.0, 0.9, g_minus=g, minus_mass=0.2)
        # g+ mass 0.8 minus g- mass 0.2 scales the integral by 0.6
        integral = full + 1.0 * 0.81
        assert mixed == pytest.approx(0.6 * integral - 0.81, abs=1e-12)


class TestCriticalCoupling:
    def test_dirac_zero(self):
        assert ps.critical_coupling(ps.Dirac(0.0)) == 0.0

    def test_uniform_matches_scan_oracle(self):
        gamma = 0.5
        kc = ps.critical_coupling(ps.Uniform(0, gamma))
        # brute-force 2000x2000 sign scan of the closed-form residual
        ks = np.linspace(0.60, 0.68, 2000)
        rs = np.linspace(1e-6, 1.0, 2000)
        kc_scan = None
        for k in ks:
            a = k * rs
            ok = a >= gamma
            if not np.any(ok):
                continue
            f = uniform_integral_closed_form(gamma, a[ok]) - k * rs[ok] ** 2
            if np.any(f >= 0):
                kc_scan = k
                break
        assert kc_scan is not None
        assert kc == pytest.approx(kc_scan, abs=1e-4)

    def test_uniform_kc_monotone_in_width(self):
        kcs = [ps.critical_coupling(ps.Uniform(0, g)) for g in (0.1, 0.2, 0.4, 0.8)]
        assert all(b > a for a, b in zip(kcs, kcs[1:]))

    @pytest.mark.parametrize("gamma", [0.1, 0.45, 0.5, 0.57])
    def test_uniform_four_gamma_over_pi(self, gamma):
        assert ps.critical_coupling(ps.Uniform(0, gamma)) == pytest.approx(4 * gamma / np.pi, abs=1e-9)

    def test_truncated_gaussian_minimisation_oracle(self):
        oracle = tgauss_kc_oracle(0.0, 0.3, 0.6)
        assert oracle == pytest.approx(0.678297009, abs=1e-9)
        assert ps.critical_coupling(ps.TruncatedGaussian(0, 0.3, 0.6)) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("w", [0.1, 0.3, 0.45])
    def test_two_atoms_two_w(self, w):
        assert ps.critical_coupling(ps.Discrete((-w, w), (0.5, 0.5))) == pytest.approx(2 * w, abs=1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            ps.critical_coupling(ps.Uniform(0, 0.5), kc_tol=tol)

    def test_bracket_cap(self):
        with pytest.raises(ps.BracketNotFoundError):
            ps.critical_coupling(ps.Uniform(0, 0.5), k_max=0.5)


class TestStationaryDensity:
    def test_domain_error(self):
        with pytest.raises(ValueError):
            ps.stationary_density(ps.Uniform(0, 0.5), 1.0, 0.3)

    def test_dirac_atomic(self):
        sd = ps.stationary_density(ps.Dirac(0.0), 1.0, 1.0, phi_star=0.4)
        assert sd.is_atomic
        assert sd.theta_plus(0.0) == pytest.approx(0.4)

    @pytest.mark.parametrize("g", [ps.Dirac(0.0), ps.Discrete((-0.3, 0.3), (0.5, 0.5))], ids=["dirac", "discrete"])
    def test_atomic_marginal_is_zero(self, g):
        # the marginal excludes atoms, so an atomic law has none to give
        sd = ps.stationary_density(g, 1.0, 1.0)
        theta = np.linspace(-np.pi, np.pi, 12).reshape(3, 4)
        got = sd.marginal(theta)
        assert got.shape == theta.shape and not np.any(got)
        assert sd.marginal(0.25).shape == ()

    def test_marginal_integrates_to_one(self):
        g = ps.Uniform(0, 0.3)
        k = 1.0
        r = ps.self_consistency_roots(g, k).largest
        sd = ps.stationary_density(g, k, r)
        edge = np.arcsin(0.3 / (k * r))
        val, _ = quad(sd.marginal, -np.pi, np.pi, points=[-edge, edge], limit=200,
                      epsabs=1e-12, epsrel=1e-12)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_sampled_order_parameter_closes(self):
        g = ps.Uniform(0, 0.3)
        k = 1.0
        r = ps.self_consistency_roots(g, k).largest
        sd = ps.stationary_density(g, k, r)
        meas = ps.discretize(sd.sample_spec(512), coupling=k)
        got = ps.weighted_order_parameter(meas.weights, meas.thetas).r
        assert got == pytest.approx(r, abs=1e-6)

    def test_round_trip_stationary_under_flow(self):
        g = ps.Uniform(0, 0.3)
        k = 1.0
        r = ps.self_consistency_roots(g, k).largest
        meas = ps.discretize(ps.stationary_density(g, k, r).sample_spec(512), coupling=k)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=10, record_every=50))
        assert np.max(np.abs(traj.r_series - r)) < 1e-3

    def test_critical_support_flag(self):
        g = ps.Uniform(0, 0.3)
        sd = ps.stationary_density(g, 1.0, 0.3)
        assert sd.critical_support
        sd2 = ps.stationary_density(g, 1.0, 0.9)
        assert not sd2.critical_support

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

import phasesync as ps
import phasesync.stationary as st
from phasesync.stationary import DEFAULT_GRID, ROOT_TOL


def uniform_integral_closed_form(gamma, a, center=0.0):
    """int sqrt(a^2 - w^2) on [center - gamma, center + gamma] against the
    uniform pdf, from the antiderivative F(w) = (w sqrt(a^2-w^2) + a^2
    arcsin(w/a))/2 on the support clipped to [-a, a]. arcsin(w/a) is taken
    as arctan2(w, sqrt((a-w)(a+w))), which stays accurate an ulp from +-a."""

    def F(w):
        s = np.sqrt((a - w) * (a + w))
        return 0.5 * (w * s + a * a * np.arctan2(w, s))

    return (F(np.minimum(center + gamma, a)) - F(np.maximum(center - gamma, -a))) / (2 * gamma)


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


def integral_grid_v070(g, a):
    """The vectorised I(a) as v0.7.0 computed it, kept as the oracle: the
    whole grid at every order from 64 nodes, doubled until both ends match
    the adaptive I to ROOT_TOL."""
    if g.is_discrete:
        w, p = g.atoms()
        return np.sqrt(np.maximum(a[:, None] ** 2 - w * w, 0.0)) @ p
    ref = np.array([st._integral(g, a[0]), st._integral(g, a[-1])])
    t_lo, t_hi = np.arcsin(np.clip(np.divide.outer(g.support(), a), -1.0, 1.0))
    mid, half = 0.5 * (t_hi + t_lo), 0.5 * (t_hi - t_lo)
    n = 64
    while True:
        x, wx = st._legendre(n)
        s = np.sin(mid[:, None] + half[:, None] * x)
        val = a * a * half * (((1.0 - s * s) * g.pdf(a[:, None] * s)) @ wx)
        if n >= 1024 or max(abs(val[0] - ref[0]), abs(val[-1] - ref[1])) <= ROOT_TOL:
            return val
        n *= 2


# the stationary-kc laws (the seeded ones at bench seed 1)
BENCH_LAWS = [
    ps.Uniform(0, 0.5),
    ps.Uniform(0, 0.4175),
    ps.TruncatedGaussian(0, 0.3, 0.6),
    ps.Discrete((-0.3583, 0.3583), (0.5, 0.5)),
    ps.Dirac(0.0),
]

# laws whose end points need from 16 to 256 Legendre nodes; on the
# off-centre Gaussians an end-point match of 1e-10 stops at 16 nodes,
# too few for the interior
GRID_LAWS = [
    ps.Uniform(0, 0.5),
    ps.TruncatedGaussian(0, 0.3, 0.6),
    ps.TruncatedGaussian(0.1, 0.3, 0.6),
    ps.TruncatedGaussian(-0.2, 0.25, 0.5),
    ps.TruncatedGaussian(0, 0.01, 0.3),
]

NON_FINITE_LAWS = [
    (ps.Uniform, (0, math.nan)), (ps.Uniform, (0, math.inf)), (ps.Uniform, (math.nan, 0.5)),
    (ps.Uniform, (-math.inf, 0.5)), (ps.TruncatedGaussian, (math.nan, 0.3, 0.6)),
    (ps.TruncatedGaussian, (0, math.nan, 0.6)), (ps.TruncatedGaussian, (0, math.inf, 0.6)),
    (ps.TruncatedGaussian, (0, 0.3, math.nan)), (ps.TruncatedGaussian, (0, 0.3, math.inf)),
    (ps.Dirac, (math.nan,)), (ps.Discrete, ((-0.3, math.inf), (0.5, 0.5))),
    (ps.Discrete, ((-0.3, 0.3), (math.nan, 0.5))),
]

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
        # the whole array at once, with non-finite points: zero off the
        # support, as the scalar path's test lo <= omega <= hi says
        points = interior + ends + outside + [math.nan, math.inf, -math.inf]
        got = g.pdf(np.array(points).reshape(-1, 1))
        assert got.shape == (len(points), 1)
        assert got[:, 0].tolist() == [g.pdf(float(x)) for x in points]
        assert got[-3:].tolist() == [[0.0]] * 3

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

    @pytest.mark.parametrize("law,args", NON_FINITE_LAWS, ids=[f"{law.__name__}{args}" for law, args in NON_FINITE_LAWS])
    def test_non_finite_parameters_rejected(self, law, args):
        with pytest.raises(ValueError):
            law(*args)

    @pytest.mark.parametrize("g", [ps.Uniform(0, 0.5), ps.TruncatedGaussian(0, 0.3, 0.6)], ids=repr)
    @pytest.mark.parametrize("n", [0, -1])
    def test_quadrature_needs_a_node(self, g, n):
        with pytest.raises(ValueError):
            g.quadrature(n)


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

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_nonpositive_coupling_rejected(self, k):
        with pytest.raises(ValueError):
            ps.self_consistency_roots(ps.Uniform(0, 0.5), k)

    @pytest.mark.parametrize("grid", [0, 1])
    def test_grid_below_two_rejected(self, grid):
        # grid=1 scanned no interval, and so missed the root at K = 1.5 > K_c
        with pytest.raises(ValueError):
            ps.self_consistency_roots(ps.Uniform(0, 0.5), 1.5, grid=grid)
        with pytest.raises(ValueError):
            ps.critical_coupling(ps.Uniform(0, 0.5), grid=grid)

    def test_two_point_grid_brackets_the_root(self):
        g, k = ps.Uniform(0, 0.5), 1.5
        want = ps.self_consistency_roots(g, k).roots
        assert len(want) == 1
        assert ps.self_consistency_roots(g, k, grid=2).roots == [pytest.approx(want[0], abs=1e-14)]

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


class TestResidual:
    """The public residual integrates in omega, with a square root at an
    end that meets +-K R as QAWS's weight; it is the independent check of
    the t-form I, so it must not call it."""

    @pytest.mark.parametrize("center,gamma,k,r", [
        (0.0, 0.5, 1.0, 0.5),  # K R exactly at max|omega|
        (0.0, 0.5, 1.0, np.nextafter(0.5, 1.0)),  # one ulp outside
        (0.0, 0.5, 1.0, np.nextafter(0.5, 0.0)),  # one ulp inside
        (0.0, 0.5, 1.2, 0.5 / 1.2),  # the roots scan's first point
        (0.1, 0.4, 1.0, 0.5),  # off-centre: only the upper end singular
        (0.1, 0.4, 1.3, 0.5 / 1.3),
        (0.0, 0.5, 1.2, 0.8),  # support inside (-K R, K R): plain quad
        (-0.21804, 0.40682, 2.1229, 0.128908),  # K R inside the support: the old
        (0.11, 0.5, 1.0, 0.032),  # residual erred by 2.1e-14 and 1.6e-3
        (0.2, 0.5, 1.5, 0.2),  # inside, the lower end an ulp inside -K R
    ])
    def test_uniform_matches_closed_form(self, center, gamma, k, r):
        want = uniform_integral_closed_form(gamma, k * r, center) - k * r * r
        assert abs(ps.self_consistency_residual(ps.Uniform(center, gamma), k, r) - want) <= 1e-14

    def test_truncated_gaussian_inside_support(self):
        # the old residual, blind to the kink at -K R, erred by 1.3e-6 here
        mean, sigma, cut, k, r = -0.15195, 0.043757, 0.090924, 2.1480, 0.028546
        a = k * r
        norm = math.erf(cut / (sigma * math.sqrt(2))) * sigma * math.sqrt(2 * math.pi)
        f = lambda w: math.sqrt(a * a - w * w) * math.exp(-0.5 * ((w - mean) / sigma) ** 2) / norm
        assert mean - cut < -a < mean + cut < a
        # g vanishes below mean - cut, the integrand below -a: split there
        want = quad(f, -a, mean + cut, epsabs=1e-16, epsrel=1e-14, limit=500)[0] - k * r * r
        got = ps.self_consistency_residual(ps.TruncatedGaussian(mean, sigma, cut), k, r)
        assert abs(got - want) <= 1e-14

    @pytest.mark.parametrize("g", BENCH_LAWS + [ps.TruncatedGaussian(0.1, 0.3, 0.6)], ids=repr)
    def test_independent_of_the_t_form(self, g, monkeypatch):
        k = 1.5
        want = [ps.self_consistency_residual(g, k, r) for r in (g.max_abs_omega / k, 0.2, 0.7, 1.0)]

        def forbidden(*args):
            raise AssertionError("the residual used the t-form I")

        monkeypatch.setattr(st, "_integral", forbidden)
        monkeypatch.setattr(st, "_legendre_integral", forbidden)
        assert [ps.self_consistency_residual(g, k, r) for r in (g.max_abs_omega / k, 0.2, 0.7, 1.0)] == want

    @pytest.mark.parametrize("g", [ps.Uniform(0, 0.5), ps.TruncatedGaussian(0, 0.3, 0.6)], ids=repr)
    @pytest.mark.parametrize("k", [1.0, 1.2])
    @pytest.mark.parametrize("ulps", [0, 1])
    def test_few_density_calls_at_the_support_edge(self, g, k, ulps, monkeypatch):
        # K R = max|omega| (or an ulp above), the filter's lower end point:
        # 567 calls under the old residual, 50 under QAWS
        r = g.max_abs_omega / k
        r = np.nextafter(r, 1.0) if ulps else r
        calls = []
        pdf = type(g).pdf
        monkeypatch.setattr(type(g), "pdf", lambda self, w: (calls.append(w), pdf(self, w))[1])
        ps.self_consistency_residual(g, k, r)
        assert 0 < len(calls) <= 100


class TestIntegralGrid:
    """The vectorised I(a) picks brackets and the argmin cell only; every
    reported number is polished on the adaptive I."""

    @pytest.mark.parametrize("g", BENCH_LAWS, ids=repr)
    def test_roots_and_kc_bitwise_as_with_v070_grid(self, g, monkeypatch):
        kc = ps.critical_coupling(g)
        ks = [(kc or 0.5) * f for f in (1 + 1e-6, 1.01, 1.3, 2.0)] + [0.8, 1.2, 2.0]
        got = [ps.self_consistency_roots(g, k).roots for k in ks]
        signs = []
        for k in ks:
            r = np.linspace(max(g.max_abs_omega / k, 1e-12), 1.0, DEFAULT_GRID)
            signs.append([np.sign(grid(g, k * r) - k * r * r) for grid in (st._integral_grid, integral_grid_v070)])
        monkeypatch.setattr(st, "_integral_grid", integral_grid_v070)
        assert ps.critical_coupling(g) == kc
        assert [ps.self_consistency_roots(g, k).roots for k in ks] == got
        assert any(got)
        for new, old in signs:
            assert np.array_equal(new, old)

    @pytest.mark.parametrize("g", GRID_LAWS, ids=repr)
    def test_grid_matches_adaptive_integral_inside(self, g):
        # the roots scan at K = 1.2 and the K_c scan up to h(2 max|omega|)
        wmax = g.max_abs_omega
        for a_hi in (1.2, (2 * wmax) ** 2 / st._integral(g, 2 * wmax)):
            a = np.linspace(wmax, a_hi, DEFAULT_GRID)
            val = st._integral_grid(g, a)
            for i in np.linspace(0, a.size - 1, 43).round().astype(int)[1:-1]:
                assert abs(val[i] - st._integral(g, a[i])) <= 1e-12, (a_hi, a[i])

    def test_unresolved_law_scans_the_adaptive_integral(self, monkeypatch):
        # 1024 Legendre nodes still miss I at the scan's ends by 0.056 and
        # 0.008, and that grid's signs hid the root; F > 0 at R = 0.99999
        g, k = ps.TruncatedGaussian(0, 0.0005, 0.3), 1.2
        assert ps.self_consistency_residual(g, k, 0.99999) > 0 > ps.self_consistency_residual(g, k, 1.0)
        sizes = []
        rule = st._legendre_integral
        monkeypatch.setattr(st, "_legendre_integral", lambda g_, a, n: (sizes.append(a.size), rule(g_, a, n))[1])
        res = ps.self_consistency_roots(g, k)
        assert len(res.roots) == 1 and 0.99999 < res.roots[0] <= 1.0
        assert set(sizes) == {2}  # no rule is evaluated on the whole grid

    @pytest.mark.parametrize("g,nodes", [(ps.Uniform(0, 0.5), 16), (ps.TruncatedGaussian(0, 0.3, 0.6), 32),
                                         (ps.TruncatedGaussian(0, 0.01, 0.3), 256)], ids=repr)
    def test_order_chosen_on_end_points_only(self, g, nodes, monkeypatch):
        calls = []
        rule = st._legendre_integral
        monkeypatch.setattr(st, "_legendre_integral", lambda g_, a, n: (calls.append((a.size, n)), rule(g_, a, n))[1])
        a = np.linspace(g.max_abs_omega, 1.2, 1000)
        st._integral_grid(g, a)
        assert calls[-1] == (1000, nodes)
        assert all(size == 2 for size, _ in calls[:-1])
        assert [n for _, n in calls[:-1]] == [16 * 2**i for i in range(len(calls) - 1)]


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

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])  # non-finite too
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            ps.critical_coupling(ps.Uniform(0, 0.5), kc_tol=tol)

    @pytest.mark.parametrize("k_max", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_k_max_rejected(self, k_max):
        # k_max = nan made the cap test kc > k_max false, so the cap was off
        with pytest.raises(ValueError):
            ps.critical_coupling(ps.Uniform(0, 0.5), k_max=k_max)

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

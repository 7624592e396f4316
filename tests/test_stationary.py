import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

import phasesync as ps
import phasesync.freqdist as fd
import phasesync.stationary as st
from phasesync.stationary import ROOT_TOL


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
    """Analytic roots of K R^2 = sqrt((KR)^2 - omega0^2): quadratic in R^2.
    Its discriminant 1 - (2 omega0 / K)^2 is formed as (K - 2|omega0|) (K +
    2|omega0|) / K^2, whose difference is exact near K = 2|omega0|."""
    w2 = 2 * abs(omega0)
    disc = (k - w2) * (k + w2) / (k * k)
    if disc < 0:
        return []
    return sorted(math.sqrt((1 + s * math.sqrt(disc)) / 2) for s in (-1, 1))


def uniform_slope_closed_form(gamma, a, center=0.0):
    """I'(a) = a int g(omega) / sqrt(a^2 - omega^2) for the uniform law, from
    the antiderivative arcsin(w/a) taken as in uniform_integral_closed_form."""
    at = lambda w: np.arctan2(w, np.sqrt((a - w) * (a + w)))
    return a * (at(np.minimum(center + gamma, a)) - at(np.maximum(center - gamma, -a))) / (2 * gamma)


def uniform_kc_closed_form(g):
    """min h for a uniform law: h(max|omega|) when h' = 2 I - a I' >= 0 there
    (I is concave, so h rises from there), else h at the root of h', found
    by Brent's method to rounding on the closed-form I and I'."""
    a0 = g.max_abs_omega
    i = lambda a: uniform_integral_closed_form(g.halfwidth, a, g.center)
    dh = lambda a: 2 * i(a) - a * uniform_slope_closed_form(g.halfwidth, a, g.center)
    a = a0 if dh(a0) >= 0 else brentq(dh, a0, 4 * a0, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    return a * a / i(a)


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


def t_kernel_v0110(g, a, cos2=True):
    """The adaptive I's and J1's quad callbacks as v0.11.0 built them, kept
    as the oracle of the laws' fused kernels."""
    if cos2:
        return lambda t: math.cos(t) ** 2 * g.pdf(a * math.sin(t))
    return lambda t: g.pdf(a * math.sin(t))


def integral_v0110(g, a):
    """The adaptive I as v0.11.0 computed it, kept as the oracle on laws
    whose core does not lie inside the support."""
    if isinstance(g, ps.Discrete):
        w, p = g.atoms()
        return float((np.sqrt(np.maximum(np.array([a])[:, None] ** 2 - w * w, 0.0)) @ p)[0])
    t_lo, t_hi = np.arcsin(np.clip(np.divide(g.support(), a), -1.0, 1.0))
    return a * a * quad(t_kernel_v0110(g, a), t_lo, t_hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


def integral_v0180(g, a):
    """I as v0.18.0 took it: omega^2 of the atoms formed at each call."""
    if isinstance(g, ps.Discrete):
        w, p = g.atoms()
        return float((np.sqrt(np.maximum(np.array([[a]]) ** 2 - w * w, 0.0)) @ p)[0])
    return g.integral(a)


def slope_v0180(g, a):
    """I'(a) / a as v0.18.0 took it."""
    if isinstance(g, ps.Discrete):
        w, p = g.atoms()
        d = np.sqrt(np.maximum(a * a - w * w, 0.0))
        with np.errstate(divide="ignore"):
            return float(np.divide(p, d, out=np.zeros(p.size), where=p > 0).sum())
    return g.integral(a, cos2=False)


def argmin_h_v0180(g):
    """(a*, h(a*)) as v0.18.0's _argmin_h solved it, with no integral kept."""
    a0 = g.max_abs_omega
    if a0 == 0.0:
        return 0.0, 0.0
    i0, j0 = integral_v0180(g, a0), slope_v0180(g, a0)
    if 0.0 < a0 * a0 * j0 <= 2.0 * i0 * (1.0 + st._SLACK):
        return a0, a0 * a0 / i0
    h = lambda a: a * a / integral_v0180(g, a)
    dh = lambda a: 2.0 * i0 - a0 * a0 * j0 if a == a0 else 2.0 * integral_v0180(g, a) - a * a * slope_v0180(g, a)
    a_star = brentq(dh, a0, h(2.0 * a0), xtol=math.ulp(a0), rtol=4.0 * np.finfo(float).eps)
    return a_star, h(a_star)


def roots_v0180(g, k, a_star):
    """The roots as v0.18.0's self_consistency_roots found them, given the
    minimiser a* of h: F taken by integral at every distinct bracket end."""
    wmax = g.max_abs_omega
    r_lo = max(wmax / k, 1e-12)
    r_star = min(max(a_star / k, r_lo), 1.0)
    f = lambda r: integral_v0180(g, k * r) - k * r * r
    ends = {r: f(r) for r in dict.fromkeys((r_lo, r_star, 1.0))}
    roots = []
    for lo, hi in ((r_lo, r_star), (r_star, 1.0)):
        if lo < hi and ends[lo] * ends[hi] <= 0.0:
            roots.append(brentq(lambda r: ends[r] if r in ends else f(r), lo, hi, xtol=1e-14, rtol=1e-15))
    roots += [r for r in ((1.0,) if wmax / k < 1e-9 else (r_lo, 1.0)) if abs(ends[r]) <= st._SLACK]
    roots = sorted(float(r) for r in roots if abs(ps.self_consistency_residual(g, k, r)) < ROOT_TOL)
    return [r for i, r in enumerate(roots) if i == 0 or r - roots[i - 1] > 1e-9]


def scanned_kc_v0121(g, grid=1024):
    """K_c as v0.12.1's scan path computed it, kept as the oracle of the
    minimiser: h = a^2 / I on `grid` points of [max|omega|, h(2 max|omega|)],
    the least cell polished by bounded Brent, h(max|omega|) a candidate."""
    a0 = g.max_abs_omega
    if a0 == 0.0:
        return 0.0
    h = lambda a: a * a / i_a if (i_a := g.integral(a)) > 0.0 else math.inf
    a = np.linspace(a0, h(2 * a0), grid)
    i = int(np.argmin([h(x) for x in a]))
    polish = minimize_scalar(h, bounds=(a[max(i - 1, 0)], a[min(i + 1, grid - 1)]), method="bounded",
                             options={"xatol": 1e-10})
    return min(h(a0), float(polish.fun))


# the stationary-kc laws (the seeded ones at bench seed 1)
BENCH_LAWS = [
    ps.Uniform(0, 0.5),
    ps.Uniform(0, 0.4175),
    ps.TruncatedGaussian(0, 0.3, 0.6),
    ps.Discrete((-0.3583, 0.3583), (0.5, 0.5)),
    ps.Dirac(0.0),
]

# centred and off-centre truncated Gaussians from wide to narrow
GAUSS_LAWS = [
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


# laws whose h = a^2 / I falls from the support edge: the edge certificate
# fails on them and Brent's method finds K_c below h(max|omega|)
FALLING_EDGE_LAWS = [ps.Uniform(-0.3, 0.2), ps.Uniform(-0.45, 0.05)]

EDGE_LAWS = list(dict.fromkeys(BENCH_LAWS + GAUSS_LAWS + ONSET_LAWS + [
    ps.Uniform(0.1, 0.4), ps.TruncatedGaussian(0.1, 0.3, 0.6)] + FALLING_EDGE_LAWS))

# the laws without atoms above: every one but the falling-edge laws is certified
CERTIFIED_LAWS = [g for g in EDGE_LAWS if not isinstance(g, ps.Discrete) and g not in FALLING_EDGE_LAWS]

# one law of each kind
ALL_KINDS = [ps.Uniform(0.1, 0.4), ps.TruncatedGaussian(0.1, 0.3, 0.6),
             ps.Discrete((-0.3, 0.1, 0.3), (0.3, 0.3, 0.4)), ps.Dirac(0.2)]

# sigmas of truncated Gaussians at cut 0.3 whose unsplit adaptive I missed the peak
NARROW_SIGMAS = [1e-4, 1e-5, 1e-6]


def scaled(g, c):
    """g under omega -> c omega."""
    if isinstance(g, ps.Dirac):
        return ps.Dirac(c * g.omega0)
    if isinstance(g, ps.Discrete):
        return ps.Discrete(tuple(c * w for w in g.omegas), g.probs)
    if isinstance(g, ps.Uniform):
        return ps.Uniform(c * g.center, c * g.halfwidth)
    return ps.TruncatedGaussian(c * g.mean, c * g.sigma, c * g.cut)


def count_integrals(monkeypatch, g, calls, cos2_only=False):
    """Append to calls the a of every integral call on g's class from here on
    (of I alone with cos2_only, else of I and J)."""
    integral = type(g).integral
    monkeypatch.setattr(type(g), "integral", lambda g_, a, cos2=True: (
        calls.append(a) if cos2 or not cos2_only else None, integral(g_, a, cos2))[1])


def count_solves(monkeypatch):
    """The laws of every _argmin_h call from here on."""
    solves, argmin_h = [], st._argmin_h
    monkeypatch.setattr(st, "_argmin_h", lambda g, a0: (solves.append(g), argmin_h(g, a0))[1])
    return solves


def core_inside(g):
    """A truncated Gaussian's mean +- 8 sigma core lies inside its cut."""
    return isinstance(g, ps.TruncatedGaussian) and g.cut > 8 * g.sigma


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

    def test_pdf_of_a_cut_far_wider_than_sigma_does_not_warn(self):
        # scale * d * d overflows to -inf, and exp(-inf) = 0 is the density there
        g = ps.TruncatedGaussian(0.0, 1e-100, 1e300)
        omega = np.array([-1e300, -1e150, 0.0, 1e-100, 1e150, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = g.pdf(omega)
        assert got.tolist() == [g.pdf(float(w)) for w in omega]
        assert got[2] > got[3] > 0.0 and not np.any(got[[0, 1, 4, 5]])

    @pytest.mark.parametrize("g", PDF_LAWS, ids=repr)
    def test_pdf_matches_v040_formula(self, g):
        lo, hi = g.support()
        omega = np.linspace(lo - 0.2, hi + 0.2, 10_000)
        want = pdf_v040(g, omega)
        for got in (g.pdf(omega), np.array([g.pdf(float(w)) for w in omega])):
            assert np.array_equal(got > 0.0, want > 0.0)
            assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_cached_constants_leave_equality_hash_and_replace(self, monkeypatch):
        g = ps.TruncatedGaussian(0.1, 0.3, 0.6)
        twin = ps.TruncatedGaussian(0.1, 0.3, 0.6)
        ps.critical_coupling(g)  # g keeps its minimiser of h; twin is cold
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
        # replace without a change builds a cold law: it solves again, g does not
        solves = count_solves(monkeypatch)
        assert ps.critical_coupling(dataclasses.replace(g)) == ps.critical_coupling(g)
        assert len(solves) == 1

    @pytest.mark.parametrize("g", ALL_KINDS, ids=repr)
    def test_laws_pickle_compare_hash_and_replace(self, g, monkeypatch):
        kc = ps.critical_coupling(g)  # a warm law pickles, compares and hashes as a cold one
        twin = pickle.loads(pickle.dumps(g))
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert twin.support() == g.support() and twin.max_abs_omega == g.max_abs_omega
        assert not any(callable(v) for v in vars(g).values())  # no closures on the instance
        fields = dataclasses.fields(g)
        moved = dataclasses.replace(g, **{f.name: getattr(g, f.name) for f in fields if f.init})
        assert moved == g and hash(moved) == hash(g)
        for law in (g, twin, moved):
            if isinstance(g, ps.Discrete):
                w, p = law.atoms()
                want = (g.omegas, g.probs) if isinstance(g, ps.Discrete) else ((g.omega0,), (1.0,))
                assert (tuple(w.tolist()), tuple(p.tolist())) == want
                assert not w.flags.writeable and not p.flags.writeable
                with pytest.raises(ValueError):
                    w[0] = 0.0
            else:
                omega = np.linspace(-1.0, 1.0, 101)
                assert np.array_equal(law.pdf(omega), g.pdf(omega))
        # neither the pickled twin nor the replaced law carries g's minimiser
        solves = count_solves(monkeypatch)
        assert [ps.critical_coupling(law) for law in (g, twin, moved)] == [kc] * 3
        assert len(solves) == 2 and solves[0] is twin and solves[1] is moved

    def test_discrete_atoms_follow_replace(self):
        g = ps.Discrete((-0.3, 0.3), (0.5, 0.5))
        moved = dataclasses.replace(g, omegas=(-0.1, 0.2), probs=(0.25, 0.75))
        assert [x.tolist() for x in moved.atoms()] == [[-0.1, 0.2], [0.25, 0.75]]
        assert [x.tolist() for x in dataclasses.replace(ps.Dirac(0.2), omega0=0.4).atoms()] == [[0.4], [1.0]]
        assert [x.tolist() for x in g.atoms()] == [[-0.3, 0.3], [0.5, 0.5]]

    def test_discrete_expect(self):
        g = ps.Discrete((-0.3, 0.3), (0.5, 0.5))
        assert g.expect(lambda w: w * w) == pytest.approx(0.09, abs=1e-15)
        assert g.max_abs_omega == 0.3

    def test_discrete_validation(self):
        with pytest.raises(ValueError):
            ps.Discrete((0.0, 1.0), (0.6, 0.6))
        with pytest.raises(ValueError, match="same length"):
            ps.Discrete((1, 2), (1,))

    def test_dirac(self):
        g = ps.Dirac(0.2)
        assert g.expect(lambda w: w) == pytest.approx(0.2)
        assert g.max_abs_omega == 0.2

    def test_dirac_is_the_one_atom_discrete_law(self):
        g = ps.Dirac(0.2)
        assert isinstance(g, ps.Discrete)
        assert (g.omegas, g.probs, repr(g)) == ((0.2,), (1.0,), "Dirac(omega0=0.2)")
        assert [f.name for f in dataclasses.fields(g) if f.init] == ["omega0"]
        # every method is the Discrete law's: no second implementation
        assert not {"support", "atoms", "quadrature", "expect", "integral"} & set(vars(ps.Dirac))
        assert g != ps.Discrete((0.2,), (1.0,)) and g == ps.Dirac(0.2) != ps.Dirac(0.3)
        with pytest.raises(ValueError, match="finite"):
            ps.Dirac(math.inf)

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
    @pytest.mark.parametrize("k", [1e300, np.nextafter(st._A_MAX, math.inf), math.inf, math.nan, 0.0, -1.0])
    def test_coupling_outside_the_domain_is_rejected(self, k):
        # 1e300 and the float above _A_MAX gave no roots: (K R)^2 was inf
        with pytest.raises(ValueError, match="coupling"):
            ps.self_consistency_roots(ps.Uniform(0, 0.5), k)

    def test_largest_coupling_is_analysed(self):
        assert st._A_MAX ** 2 < math.inf
        assert ps.self_consistency_roots(ps.Dirac(0.0), st._A_MAX).roots == [1.0]

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

    @pytest.mark.parametrize("w", [0.3, 0.4])
    @pytest.mark.parametrize("eps", [1e-9, 1e-10])
    def test_close_pair_near_onset(self, w, eps):
        # both roots lie within 4e-5 of R* = 1/sqrt(2), inside one cell of
        # the 4096-point R-scan that v0.12.x took, and it found neither.
        # F' is about 1e-5 at each root, so F's rounding (~1e-17) moves
        # them by ~1e-12: 2.4e-12 at most here
        k = 2 * w * (1 + eps)
        got = ps.self_consistency_roots(ps.Discrete((-w, w), (0.5, 0.5)), k).roots
        want = two_atom_roots(k, w)
        assert len(got) == 2 and want[1] - want[0] < 4e-5
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-11

    def test_narrow_law_root_near_one(self):
        # F > 0 at R = 0.99999: a 1024-node Legendre rule missed I at the
        # ends of v0.11.0's scan by 0.056 and 0.008, and its signs hid this root
        g, k = ps.TruncatedGaussian(0, 0.0005, 0.3), 1.2
        assert ps.self_consistency_residual(g, k, 0.99999) > 0 > ps.self_consistency_residual(g, k, 1.0)
        res = ps.self_consistency_roots(g, k)
        assert len(res.roots) == 1 and 0.99999 < res.roots[0] <= 1.0

    @pytest.mark.parametrize("g", list(dict.fromkeys(BENCH_LAWS + GAUSS_LAWS + ONSET_LAWS)), ids=repr)
    def test_roots_are_the_sign_changes_of_f(self, g):
        # away from onset the roots are far apart, so a 257-point sign scan
        # of F on the adaptive I holds each in its own cell
        kc = ps.critical_coupling(g)
        for k in [(kc or 0.5) * f for f in (1.01, 1.3, 2.0)] + [0.8, 1.2, 2.0]:
            if g.max_abs_omega / k > 1.0:
                continue
            r = np.linspace(max(g.max_abs_omega / k, 1e-12), 1.0, 257)
            f = np.array([g.integral(k * x) - k * x * x for x in r])
            cells = [i for i in range(r.size - 1) if f[i] != 0.0 and f[i] * f[i + 1] <= 0.0]
            roots = ps.self_consistency_roots(g, k).roots
            if g.max_abs_omega / k >= 1e-9 and abs(f[0]) <= 1e-9:  # a root at K R = max|omega|
                assert roots[0] == r[0]
                roots = roots[1:]
            assert len(roots) == len(cells), k
            assert all(r[i] <= x <= r[i + 1] for x, i in zip(roots, cells)), k

    @pytest.mark.parametrize("g", ONSET_LAWS, ids=repr)
    def test_roots_appear_at_kc(self, g):
        kc = ps.critical_coupling(g)
        assert ps.self_consistency_roots(g, kc * (1 + 1e-6)).k_supercritical
        assert ps.self_consistency_roots(g, kc * (1 - 1e-6)).roots == []

    @pytest.mark.parametrize("g,solves", [(ps.TruncatedGaussian(0, 0.3, 0.6), 1), (ps.Dirac(0.0), 1),
                                          (ps.Discrete((-0.3583, 0.3583), (0.5, 0.5)), 3)], ids=repr)
    def test_bracket_ends_evaluated_once(self, g, solves, monkeypatch):
        # brentq's first calls take the end values computed before it, 0.0
        # included (Dirac: F(1) = 0): a root's bracket both ends, the
        # minimiser of h its lower end a0 (where h' is -inf on the two-atom
        # law). So a solve runs the adaptive I once per further call; v0.9.1
        # ran it 2 more times per bracket. The two-atom law's minimiser is
        # solved once, by the roots call, and critical_coupling reads it
        # (v0.16.0 solved it again: 4 solves). Outside Brent's steps the
        # truncated Gaussian takes I(max|omega|) for the certificate and I(K)
        # at R = 1, and reads R = max|omega| / K from the kept I; the two atoms
        # take I(a0) and h(2 a0) in the solve, read h(a*) from Brent's last
        # step, and take I(K) at R = 1; Dirac(0) keeps no I (v0.18.0: 3, 2
        # and 6; v0.18.0 with the kept I: 2, 2 and 4)
        outside = 3 if isinstance(g, ps.Discrete) and not isinstance(g, ps.Dirac) else 2
        g = dataclasses.replace(g)  # a cold law
        calls, seen = [], []
        brent = st.brentq

        def counted(f, lo, hi, **kw):
            before = len(calls)
            root, info = brent(f, lo, hi, full_output=True, **kw)
            seen.append((lo, info.function_calls, len(calls) - before))
            return root

        count_integrals(monkeypatch, g, calls, cos2_only=True)
        monkeypatch.setattr(st, "brentq", counted)
        ps.self_consistency_roots(g, 1.2)
        ps.critical_coupling(g)
        assert len(seen) == solves
        assert len(calls) - sum(n for _, _, n in seen) == outside
        for lo, n_calls, n_integrals in seen:
            assert n_integrals == n_calls - (1 if lo == g.max_abs_omega else 2)

    @pytest.mark.parametrize("g,k", [
        (ps.Uniform(0, 0.5), 1.2), (ps.TruncatedGaussian(0, 0.3, 0.6), 1.2),  # R* = max|omega| / K
        (ps.Uniform(0, 0.5), 0.5), (ps.TruncatedGaussian(0, 0.3, 0.6), 0.6),  # R* clips to 1 = max|omega| / K
        (ps.Uniform(-0.3, 0.2), 0.505),  # a* > K: R* clips to 1, above max|omega| / K
    ], ids=repr)
    def test_shared_bracket_end_evaluated_once(self, g, k, monkeypatch):
        # F is taken once at each distinct end of the two brackets, and not at
        # all at an end where K R is an a whose I the law kept; Brent's method
        # adds one I per call after its first two (v0.17.0 took F again at an
        # end the brackets share, v0.18.0 at a kept a)
        g = dataclasses.replace(g)
        ps.critical_coupling(g)  # the minimiser's own integrals are not counted
        calls, extra = [], []
        brent = st.brentq

        def counted(f, lo, hi, **kw):
            root, info = brent(f, lo, hi, full_output=True, **kw)
            extra.append(info.function_calls - 2)
            return root

        count_integrals(monkeypatch, g, calls, cos2_only=True)
        monkeypatch.setattr(st, "brentq", counted)
        ps.self_consistency_roots(g, k)
        r_lo = g.max_abs_omega / k
        a_star, _, kept = st._min_h(g)
        r_star = min(max(a_star / k, r_lo), 1.0)
        assert r_star in (r_lo, 1.0)
        assert len(calls) == sum(k * r not in kept for r in {r_lo, r_star, 1.0}) + sum(extra)
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("g", BENCH_LAWS, ids=repr)
    def test_cached_bracket_ends_leave_roots_bitwise(self, g, monkeypatch):
        # the stationary-kc laws: brentq on the cached-end F returns, as a
        # repr, the root it returns on F itself
        brent, pairs = st.brentq, []

        def both(f, lo, hi, **kw):
            plain = lambda r: g.integral(k * r) - k * r * r
            pairs.append((brent(f, lo, hi, **kw), brent(plain, lo, hi, **kw)))
            return pairs[-1][0]

        kc = ps.critical_coupling(g)
        star = st._argmin_h(g, g.max_abs_omega)
        monkeypatch.setattr(st, "_argmin_h", lambda g_, a0: star)  # its own solve is not a root's
        monkeypatch.setattr(st, "brentq", both)
        for k in [(kc or 0.5) * f for f in (1 + 1e-6, 1.01, 1.3, 2.0)] + [0.8, 1.2, 2.0]:
            ps.self_consistency_roots(g, k)
        assert pairs and all(repr(new) == repr(old) for new, old in pairs)

    @pytest.mark.parametrize("g,k", [
        (ps.Uniform(0, 0.5), 1.2), (ps.TruncatedGaussian(0, 0.3, 0.6), 1.2),
        (ps.Discrete((-0.3583, 0.3583), (0.5, 0.5)), 0.8), (ps.Dirac(0.0), 1.0),
        (ps.Discrete((-0.25, 0.0, 0.25), (0.25, 0.5, 0.25)), 0.5),  # F = 0 at K R = max|omega|
    ], ids=repr)
    def test_residual_only_at_brackets_and_near_zero_ends(self, g, k, monkeypatch):
        # an end whose F is off 0 by more than _SLACK cannot meet ROOT_TOL,
        # so the public residual skips it
        checked, polished = [], []
        residual, brent = st.self_consistency_residual, st.brentq
        star = st._argmin_h(g, g.max_abs_omega)
        monkeypatch.setattr(st, "_argmin_h", lambda g_, a0: star)  # its own solve is not a root's
        monkeypatch.setattr(st, "self_consistency_residual", lambda g_, k_, r: (checked.append(r), residual(g_, k_, r))[1])
        monkeypatch.setattr(st, "brentq", lambda *a, **kw: (polished.append(brent(*a, **kw)), polished[-1])[1])
        res = ps.self_consistency_roots(g, k)
        r_lo = max(g.max_abs_omega / k, 1e-12)
        ends = [1.0] if g.max_abs_omega / k < 1e-9 else [r_lo, 1.0]
        near_zero = [x for x in ends if abs(g.integral(k * x) - k * x * x) <= 1e-9]
        assert sorted(checked) == sorted(polished + near_zero)
        if isinstance(g, ps.Dirac):
            assert res.roots == [1.0]
        if r_lo in near_zero:
            assert res.roots[0] == r_lo

    def test_residual_with_minus_branch(self):
        g = ps.Uniform(0, 0.4)
        full = ps.self_consistency_residual(g, 1.0, 0.9)
        mixed = ps.self_consistency_residual(g, 1.0, 0.9, g_minus=g, minus_mass=0.2)
        # g+ mass 0.8 minus g- mass 0.2 scales the integral by 0.6
        integral = full + 1.0 * 0.81
        assert mixed == pytest.approx(0.6 * integral - 0.81, abs=1e-12)


class TestResidual:
    """The public residual integrates in omega, with a square root at an
    end that meets +-K R as QAWS's weight; it is the independent check of
    each law's integral, so it must not call it."""

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

    def test_support_outside_the_window_adds_nothing(self):
        # K R = 0.5 clips the support [0.9, 1.1] to nothing: only -K R^2 is left
        assert ps.self_consistency_residual(ps.Uniform(1, 0.1), 1, 0.5) == -0.25

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

        monkeypatch.setattr(st, "_argmin_h", forbidden)
        for law in (ps.FrequencyDistribution, ps.Uniform, ps.Discrete):
            monkeypatch.setattr(law, "integral", forbidden)
        assert [ps.self_consistency_residual(g, k, r) for r in (g.max_abs_omega / k, 0.2, 0.7, 1.0)] == want

    @pytest.mark.parametrize("k", [0.8, 1.2])
    def test_filter_rejects_roots_of_a_faulty_atom_sum(self, k):
        # squares of the atoms off by 1e-6 relative move the roots by about
        # 3e-7: the filter, which squares the atoms itself, refuses them
        omegas, probs = (-0.3583, 0.1, 0.3583), (0.4, 0.2, 0.4)
        assert len(ps.self_consistency_roots(ps.Discrete(omegas, probs), k).roots) == 2
        g = ps.Discrete(omegas, probs)
        faulty = g._omega2 * (1 + 1e-6)
        faulty.flags.writeable = False
        vars(g)["_omega2"] = faulty
        assert ps.self_consistency_roots(g, k).roots == []

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


class TestShapeOfH:
    """I is concave on a >= max|omega|, so h = a^2 / I falls to its minimum
    and then rises: _argmin_h finds it from the sign of h' = 2 I - a^2 J."""

    @pytest.mark.parametrize("g", [law for law in EDGE_LAWS if law.max_abs_omega > 0] + [ps.Dirac(0.3)], ids=repr)
    def test_h_falls_then_rises_about_the_minimiser(self, g):
        a0 = g.max_abs_omega
        a_star, kc, _ = st._argmin_h(g, a0)
        assert kc == ps.critical_coupling(g) and a0 <= a_star < kc
        a = np.linspace(a0, (2 * a0) ** 2 / g.integral(2 * a0), 201)[1:]
        h = np.array([x * x / g.integral(x) for x in a])
        tol = 1e-13 * h  # the adaptive I's error
        assert np.all(h >= kc - tol)
        assert np.all(np.diff(h)[a[1:] <= a_star] <= tol[1:][a[1:] <= a_star])
        assert np.all(np.diff(h)[a[:-1] >= a_star] >= -tol[1:][a[:-1] >= a_star])

    @pytest.mark.parametrize("g", [law for law in EDGE_LAWS if isinstance(law, ps.Discrete) and law.max_abs_omega > 0]
                             + FALLING_EDGE_LAWS, ids=repr)
    def test_interior_minimiser_is_where_h_turns(self, g):
        a_star = st._argmin_h(g, g.max_abs_omega)[0]
        dh = lambda a: 2.0 * g.integral(a) - a * a * g.integral(a, cos2=False)
        assert dh(a_star * (1 - 1e-9)) < 0.0 < dh(a_star * (1 + 1e-9))

    @pytest.mark.parametrize("g", [ps.Uniform(0, 0.5), ps.Uniform(0.1, 0.4)] + FALLING_EDGE_LAWS, ids=repr)
    def test_slope_matches_closed_form(self, g):
        a0 = g.max_abs_omega
        for a in np.linspace(a0, 3 * a0, 25)[1:].tolist():
            want = uniform_slope_closed_form(g.halfwidth, a, g.center) / a
            assert abs(g.integral(a, cos2=False) - want) <= 1e-13 * want, a

    @pytest.mark.parametrize("g", GAUSS_LAWS + [ps.Discrete((-0.3, 0.1, 0.3), (0.3, 0.3, 0.4))], ids=repr)
    def test_slope_is_the_derivative_of_i(self, g):
        a0 = g.max_abs_omega
        for a in (1.1 * a0, 1.5 * a0, 3 * a0):
            d = 1e-4 * a
            fd = (g.integral(a + d) - g.integral(a - d)) / (2 * d)
            assert g.integral(a, cos2=False) * a == pytest.approx(fd, rel=1e-6), a

    def test_slope_with_mass_at_the_edge(self):
        # an atom at +-a makes h' = -inf there; a zero-mass one adds nothing
        assert ps.Discrete((-0.3, 0.3), (0.5, 0.5)).integral(0.3, cos2=False) == math.inf
        assert ps.Discrete((0.0, 0.5), (1.0, 0.0)).integral(0.5, cos2=False) == 2.0
        assert ps.critical_coupling(ps.Discrete((0.0, 0.5), (1.0, 0.0))) == 0.5  # h(a) = a

    @pytest.mark.parametrize("g", list(dict.fromkeys(BENCH_LAWS + GAUSS_LAWS + ONSET_LAWS + FALLING_EDGE_LAWS)),
                             ids=repr)
    def test_few_adaptive_integrals(self, g, monkeypatch):
        # no scan: K_c costs the certificate's two integrals, plus two per
        # step of Brent's method where h falls from the edge; a roots call
        # the ends where K R is not an a whose I the law kept, and one per
        # further Brent step of each root: at most 17 here (v0.18.0: 19)
        g = dataclasses.replace(g)  # a cold law, so K_c's count includes its solve
        calls = []
        count_integrals(monkeypatch, g, calls)
        ps.critical_coupling(g)
        assert len(calls) <= (2 if g.max_abs_omega == 0 or g in CERTIFIED_LAWS else 40)
        for k in (0.8, 1.2, 2.0):
            calls.clear()
            ps.self_consistency_roots(g, k)
            assert 0 < len(calls) <= 17, k


class TestScaleFree:
    """omega -> c omega, K -> c K, t -> t / c leaves the model as it was, so
    K_c(g_c) = c K_c(g), and the roots R at c K are those at K."""

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("g", BENCH_LAWS, ids=repr)
    def test_kc(self, g, c):
        # the former cap k_max = 100 refused c = 1e3 on all but Dirac(0)
        kc = ps.critical_coupling(g)
        assert abs(ps.critical_coupling(scaled(g, c)) - c * kc) <= 1e-15 * c * kc

    @pytest.mark.parametrize("g", BENCH_LAWS, ids=repr)
    def test_roots(self, g):
        # 7.8e-16 at most, measured over these laws, couplings and scales;
        # ROOT_TOL and _SLACK are absolute, so near onset (K = K_c (1 + 1e-6))
        # c = 1e-4 admits the support end as a root too
        kc = ps.critical_coupling(g)
        for k in [(kc or 0.5) * f for f in (1.01, 1.3, 2.0)] + [0.8, 1.2, 2.0]:
            if g.max_abs_omega > k:
                continue
            want = ps.self_consistency_roots(g, k).roots
            for c in np.logspace(-4, 4, 17):
                got = ps.self_consistency_roots(scaled(g, c), c * k).roots
                assert len(got) == len(want) and np.all(np.abs(np.subtract(got, want)) <= 2e-15), (k, c)


class TestCriticalCoupling:
    def test_dirac_zero(self):
        assert ps.critical_coupling(ps.Dirac(0.0)) == 0.0

    @pytest.mark.parametrize("omega0", [0.3, -0.3])
    def test_dirac_is_the_one_atom_law(self, omega0):
        # K_c = 2|omega_0|: the Dirac law agrees with the one-atom Discrete
        # law and with its own roots on either side of K_c
        kc = ps.critical_coupling(ps.Dirac(omega0))
        assert kc == ps.critical_coupling(ps.Discrete((omega0,), (1.0,)))
        assert kc == pytest.approx(2 * abs(omega0), rel=1e-12)
        assert ps.self_consistency_roots(ps.Dirac(omega0), 0.99 * kc).roots == []
        assert ps.self_consistency_roots(ps.Dirac(omega0), 1.01 * kc).roots

    def test_truncated_gaussian_within_an_ulp_of_fifty_digits(self):
        # K_c = h(0.6) on this certified law, I by mpmath in t at 50 digits on
        # the binary sigma and cut: 0.67829700903127351333, which the solver
        # meets to 0.71 ulp (the bench oracle's quad + minimiser is 11 ulps low)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            s, c = mp.mpf(0.3), mp.mpf(0.6)
            norm = mp.erf(c / (s * mp.sqrt(2))) * s * mp.sqrt(2 * mp.pi)
            i = mp.quad(lambda t: c * c * mp.cos(t) ** 2 * mp.exp(-(c * mp.sin(t)) ** 2 / (2 * s * s)),
                        [-mp.pi / 2, 0, mp.pi / 2]) / norm
            want = c * c / i
            got = ps.critical_coupling(dataclasses.replace(ps.TruncatedGaussian(0, 0.3, 0.6)))
            assert abs(mp.mpf(got) - want) <= math.ulp(got)

    @pytest.mark.parametrize("g", [ps.Uniform(0.0, 1e-300), ps.Dirac(1e-300), ps.Uniform(0.0, 1e-155),
                                   ps.Discrete((-1e-200, 1e-200), (0.5, 0.5))], ids=repr)
    def test_support_whose_square_underflows_is_rejected(self, g):
        # max|omega|^2 below the least normal float: I(a) loses its bits in
        # subnormals, or underflows to 0 (a ZeroDivisionError before)
        with pytest.raises(ValueError, match="underflows"):
            ps.critical_coupling(g)
        with pytest.raises(ValueError, match="underflows"):
            ps.self_consistency_roots(g, 1.0)

    def test_least_support_whose_square_is_normal_is_analysed(self):
        w = st._A_MIN
        assert w * w >= np.finfo(float).tiny > (0.5 * w) ** 2
        kc = ps.critical_coupling(ps.Discrete((-w, w), (0.5, 0.5)))
        assert kc == pytest.approx(2 * w, rel=1e-12)

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

    @pytest.mark.parametrize("gamma", [0.1, 0.45, 0.5, 0.57, 100.0])  # 100: above the former cap on K_c
    def test_uniform_four_gamma_over_pi(self, gamma):
        # within 4 ulp of 4 gamma / pi in floats at scales 1e-150 to 1e150 (3 ulp measured)
        for g in (gamma * 10.0 ** e for e in range(-150, 151, 10)):
            want = 4.0 * g / math.pi
            assert abs(ps.critical_coupling(ps.Uniform(0, g)) - want) <= 4 * math.ulp(want), g

    def test_truncated_gaussian_minimisation_oracle(self):
        oracle = tgauss_kc_oracle(0.0, 0.3, 0.6)
        assert oracle == pytest.approx(0.678297009, abs=1e-9)
        assert ps.critical_coupling(ps.TruncatedGaussian(0, 0.3, 0.6)) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("w", [0.1, 0.3, 0.3583, 0.45])
    def test_two_atoms_two_w(self, w):
        # h(a) = a^2 / sqrt(a^2 - w^2) is flat at its minimiser sqrt(2) w, so
        # K_c is h there to rounding; v0.12.x erred by up to 1.8e-15
        for g in (ps.Discrete((-w, w), (0.5, 0.5)), ps.Dirac(w)):
            assert abs(ps.critical_coupling(g) - 2 * w) <= 2.3e-16

    @pytest.mark.parametrize("g", [ps.Uniform(0.1, 0.4), ps.Uniform(0.3, 0.45), ps.Uniform(-0.2, 0.25)]
                             + FALLING_EDGE_LAWS, ids=repr)
    def test_uniform_matches_closed_form_minimum(self, g):
        # rounding level (2.5e-16 at most here); v0.12.x polished an interior
        # minimum only to kc_tol = 1e-6 in a and erred by 3.8e-14
        want = uniform_kc_closed_form(g)
        assert abs(ps.critical_coupling(g) - want) <= 1e-15 * want

    @pytest.mark.parametrize("g", [ps.Uniform(0.0, 1e154), ps.Dirac(-1e154), ps.Uniform(0.0, 1e200),
                                   ps.Discrete((-1e154, 0.0), (0.5, 0.5)), ps.TruncatedGaussian(0, 1e153, 1e154)],
                             ids=repr)
    def test_support_whose_square_overflows_is_rejected(self, g):
        # Brent's right end h(2 max|omega|) squared to inf: a NaN K_c at 1e200,
        # overflow warnings at 1e154
        with pytest.raises(ValueError, match="overflows"):
            ps.critical_coupling(g)
        if g.max_abs_omega <= st._A_MAX:
            with pytest.raises(ValueError, match="overflows"):
                ps.self_consistency_roots(g, st._A_MAX)

    @pytest.mark.parametrize("g", [ps.Dirac(1.0), ps.Discrete((-1.0, 1.0), (0.5, 0.5)), ps.Uniform(0.0, 1.0),
                                   ps.Discrete((-1.0, 0.2, 0.5), (0.3, 0.3, 0.4))] + FALLING_EDGE_LAWS, ids=repr)
    def test_largest_support_whose_squares_are_finite_is_analysed(self, g):
        # Brent's method runs up to h(2 max|omega|) on the falling-edge and
        # atomic laws; an overflow there would warn, and the suite fails on it
        c = st._A_MAX / 4 / g.max_abs_omega
        kc = ps.critical_coupling(g)
        assert abs(ps.critical_coupling(scaled(g, c)) - c * kc) <= 1e-15 * c * kc


class TestEdgeCertificate:
    """On a law without atoms whose tangent bound on h does not fall from
    max|omega|, K_c is h(max|omega|) with no solve."""

    @pytest.mark.parametrize("g", EDGE_LAWS, ids=repr)
    def test_kc_as_on_the_scan_path(self, g):
        # the minimiser is never above the scan's least h, and no further
        # below it than the polish's tolerance in a allows
        kc, old = ps.critical_coupling(g), scanned_kc_v0121(g)
        assert kc <= old * (1 + 1e-13)
        assert kc == pytest.approx(old, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("g", CERTIFIED_LAWS, ids=repr)
    def test_certified_laws_run_two_integrals(self, g, monkeypatch):
        # I and J at max|omega|: two adaptive quads on a truncated Gaussian,
        # none on a uniform law, whose integral is its closed form
        g = dataclasses.replace(g)  # a cold law: an earlier test may have solved this one's minimiser
        calls, adaptive, integrals, integral = [], fd.quad, [], type(g).integral

        def solve(*args, **kw):
            raise AssertionError("a certified law ran Brent's method")

        for module in (fd, st):
            monkeypatch.setattr(module, "quad", lambda *a, **kw: (calls.append(a), adaptive(*a, **kw))[1])
        monkeypatch.setattr(type(g), "integral", lambda g_, a, cos2=True: (integrals.append(cos2), integral(g_, a, cos2))[1])
        monkeypatch.setattr(st, "brentq", solve)
        kc = ps.critical_coupling(g)
        assert sorted(integrals) == [False, True]
        assert len(calls) == (0 if isinstance(g, ps.Uniform) else 2)
        a0 = g.max_abs_omega
        assert kc == a0 * a0 / g.integral(a0)
        # below K_c F < 0 at both ends, so no Brent's method: the roots call
        # reads F(max|omega| / K) from the kept I and integrates at R = 1 only
        integrals.clear()
        k = 0.5 * (a0 + kc)
        assert k * (a0 / k) == a0
        assert ps.self_consistency_roots(g, k).roots == []
        assert integrals == [True]

    @pytest.mark.parametrize("g", FALLING_EDGE_LAWS, ids=repr)
    def test_falling_edge_laws_solve_below_the_edge(self, g, monkeypatch):
        g = dataclasses.replace(g)  # a cold law, as above
        solves, brent = [], st.brentq
        monkeypatch.setattr(st, "brentq", lambda *a, **kw: (solves.append(a[1:]), brent(*a, **kw))[1])
        kc = ps.critical_coupling(g)
        a0 = g.max_abs_omega
        h = lambda a: a * a / uniform_integral_closed_form(g.halfwidth, a, g.center)
        oracle = minimize_scalar(h, bounds=(a0, 2 * a0), method="bounded", options={"xatol": 1e-10})
        assert len(solves) == 1 and solves[0][0] == a0
        assert kc < h(a0) * (1 - 1e-3)
        assert kc == pytest.approx(oracle.fun, abs=1e-9)

    @pytest.mark.parametrize("g", CERTIFIED_LAWS, ids=repr)
    def test_no_lower_h_past_the_edge(self, g):
        kc, a0 = ps.critical_coupling(g), g.max_abs_omega
        for a in np.linspace(a0, (2 * a0) ** 2 / g.integral(2 * a0), 200):
            assert a * a / g.integral(a) >= kc * (1 - 1e-13), a

    def test_argument_checks_come_first(self, monkeypatch):
        # the domain is checked before the first adaptive integral
        calls = []
        for law in (ps.FrequencyDistribution, ps.Uniform, ps.Discrete):
            monkeypatch.setattr(law, "integral", lambda g_, a, cos2=True: calls.append(a))
        for g in (ps.Uniform(0, 1e-300), ps.Uniform(0, 1e200)):
            with pytest.raises(ValueError):
                ps.critical_coupling(g)
        for k in (0.0, math.nan, math.inf, 1e300):
            with pytest.raises(ValueError):
                ps.self_consistency_roots(ps.Uniform(0, 0.5), k)
        assert calls == []


class TestMinimiserKept:
    """The minimiser of h is a property of the law: a law object solves it on
    its first critical_coupling or roots call and reads it afterwards."""

    @pytest.mark.parametrize("first", ["kc", "roots"])
    @pytest.mark.parametrize("g", BENCH_LAWS + FALLING_EDGE_LAWS, ids=repr)
    def test_warm_calls_bitwise_as_cold(self, g, first, monkeypatch):
        cold_kc = ps.critical_coupling(dataclasses.replace(g))
        ks = [(cold_kc or 0.5) * f for f in (1.01, 1.3, 2.0)]
        cold_roots = [ps.self_consistency_roots(dataclasses.replace(g), k).roots for k in ks]
        warm = dataclasses.replace(g)
        if first == "kc":
            ps.critical_coupling(warm)
        else:
            ps.self_consistency_roots(warm, ks[0])
        solves = count_solves(monkeypatch)
        assert repr(ps.critical_coupling(warm)) == repr(cold_kc)
        assert repr([ps.self_consistency_roots(warm, k).roots for k in ks]) == repr(cold_roots)
        assert solves == []

    def test_many_roots_calls_solve_once(self, monkeypatch):
        g = ps.Discrete((-0.3583, 0.3583), (0.5, 0.5))
        solves = count_solves(monkeypatch)
        for k in np.linspace(0.72, 3.0, 200):
            assert len(ps.self_consistency_roots(g, k).roots) == 2
        assert solves == [g]

    @pytest.mark.parametrize("g,k,match", [(ps.Uniform(0, 1e-300), 1.0, "underflows"),
                                           (ps.Uniform(0, 1e200), None, "overflows"),
                                           (ps.Uniform(0, 1e154), st._A_MAX, "overflows")], ids=repr)
    def test_failed_solve_is_not_kept(self, g, k, match):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                ps.critical_coupling(g)
            if k is not None:
                with pytest.raises(ValueError, match=match):
                    ps.self_consistency_roots(g, k)


class TestKeptIntegrals:
    """The minimiser's solve takes I at max|omega| and at a*; the law keeps
    both with a*, and a roots call reads F there when K R is that a bit for bit."""

    @pytest.mark.parametrize("g", list(dict.fromkeys(EDGE_LAWS + ALL_KINDS)), ids=repr)
    def test_kc_and_roots_bitwise_as_in_v0180(self, g):
        a_star, kc = argmin_h_v0180(g)
        cold = dataclasses.replace(g)
        assert repr(ps.critical_coupling(cold)) == repr(kc)
        assert repr(st._min_h(cold)[:2]) == repr((a_star, kc))
        warm = dataclasses.replace(g)
        ps.critical_coupling(warm)
        a0 = g.max_abs_omega
        ks = [(kc or 0.5) * f for f in (1 + 1e-6, 1.01, 1.3, 2.0)] + [0.8, 1.2, 2.0] + [a for a in (a0, a_star) if a > 0]
        for k in ks:
            if a0 / k > 1.0:
                continue
            want = repr(roots_v0180(g, k, a_star))
            assert repr(ps.self_consistency_roots(dataclasses.replace(g), k).roots) == want, k
            assert repr(ps.self_consistency_roots(warm, k).roots) == want, k

    @pytest.mark.parametrize("g", [law for law in ALL_KINDS if isinstance(law, ps.Discrete)]
                             + [ps.Discrete(tuple(np.linspace(-0.9, 0.9, 257)), (1 / 257,) * 257)], ids=repr)
    def test_atom_sums_bitwise_as_in_v0180(self, g):
        # the kept squares are the ones each call formed: I, I' / a and the
        # public residual keep their bits
        w, p = g.atoms()
        a0 = g.max_abs_omega
        for a in (a0, np.nextafter(a0, 1.0), 1.3 * a0, 2.0):
            assert repr(g.integral(a)) == repr(integral_v0180(g, a))
            assert repr(g.integral(a, cos2=False)) == repr(slope_v0180(g, a))
            want = float(np.sum(p * np.sqrt(np.maximum(a ** 2 - w * w, 0.0))))
            assert repr(ps.self_consistency_residual(g, 1.0, a)) == repr(want - a * a)

    @pytest.mark.parametrize("g", CERTIFIED_LAWS, ids=repr)
    def test_warm_edge_call_takes_one_integral_fewer(self, g, monkeypatch):
        g = dataclasses.replace(g)
        kc, a0 = ps.critical_coupling(g), g.max_abs_omega
        ks = [k for k in (1.01 * kc, 1.3 * kc, 2.0 * kc, 1.2, 2.0) if a0 < k and k * (a0 / k) == a0]
        assert len(ks) >= 2
        counts = []
        count_integrals(monkeypatch, g, counts)
        for k in ks:
            counts.clear()
            new = ps.self_consistency_roots(g, k).roots
            n_new = len(counts)
            counts.clear()
            old = roots_v0180(g, k, a0)
            assert repr(new) == repr(old) and n_new == len(counts) - 1, k

    @pytest.mark.parametrize("g", [ps.Discrete((-0.3583, 0.3583), (0.5, 0.5)), ps.Uniform(-0.3, 0.2)], ids=repr)
    def test_cold_solve_takes_each_integral_once(self, g, monkeypatch):
        # h falls from the edge on both: Brent's last step takes I(a*), and the
        # solve reads h(a*) from it (v0.18.0: 14 I at 13 a, and 12 at 11)
        g = dataclasses.replace(g)
        calls = []
        count_integrals(monkeypatch, g, calls, cos2_only=True)
        ps.critical_coupling(g)
        a_star, _, kept = st._min_h(g)
        assert a_star > g.max_abs_omega and a_star in calls
        assert len(calls) == len(set(calls)) > 2
        assert set(kept) == {g.max_abs_omega, a_star}

    @pytest.mark.parametrize("g", ALL_KINDS + FALLING_EDGE_LAWS + [ps.Dirac(0.0)], ids=repr)
    def test_nothing_keyed_to_k_is_kept(self, g):
        g = dataclasses.replace(g)
        for k in (0.8, 1.0, 1.2, 2.0, 3.0):
            ps.self_consistency_roots(g, k)
        assert set(vars(g)) - set(vars(dataclasses.replace(g))) == {"_min_h"}
        a_star, kc, kept = vars(g)["_min_h"]
        assert len(kept) <= 2 and set(kept) <= {g.max_abs_omega, a_star}
        assert all(repr(i) == repr(integral_v0180(g, a)) for a, i in kept.items())

    @pytest.mark.parametrize("g", ALL_KINDS, ids=repr)
    def test_kept_integrals_leave_equality_hash_repr_pickle_and_replace(self, g):
        cold = dataclasses.replace(g)
        warm = dataclasses.replace(g)
        ps.self_consistency_roots(warm, 1.2)
        assert vars(warm)["_min_h"][2] and "_min_h" not in vars(cold)
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        for law in (pickle.loads(pickle.dumps(warm)), dataclasses.replace(warm)):
            assert law == warm and "_min_h" not in vars(law)

    @pytest.mark.parametrize("g", [ps.Uniform(0, 1e-300), ps.Uniform(0, 1e200), ps.Discrete((-1e-200, 1e-200), (0.5, 0.5))],
                             ids=repr)
    def test_law_that_raises_keeps_nothing(self, g):
        before = dict(vars(g))
        for call in (lambda: ps.critical_coupling(g), lambda: ps.self_consistency_roots(g, 1.0)):
            with pytest.raises(ValueError):
                call()
        assert vars(g).keys() == before.keys()

    @pytest.mark.parametrize("g", ALL_KINDS[2:] + [ps.Discrete((-0.3, 0.3), (0.5, 0.5))], ids=repr)
    def test_kept_squares_are_read_only_and_follow_replace(self, g):
        w = g.atoms()[0]
        assert g._omega2.shape == (1, w.size) and not g._omega2.flags.writeable
        assert np.array_equal(g._omega2[0], w * w)
        moved = dataclasses.replace(g, omegas=tuple(0.5 * w), probs=g.probs) if not isinstance(g, ps.Dirac) \
            else dataclasses.replace(g, omega0=0.5 * g.omega0)
        assert np.array_equal(moved._omega2[0], (0.5 * w) ** 2)


class TestKernels:
    """TruncatedGaussian inlines pdf's float path in the quad callbacks of
    the adaptive I and J1; that must not move a bit."""

    @pytest.mark.parametrize("g", EDGE_LAWS, ids=repr)
    def test_roots_and_kc_as_with_the_pdf_callback(self, g, monkeypatch):
        kc = ps.critical_coupling(g)
        ks = [(kc or 0.5) * f for f in (1 - 1e-6, 1 + 1e-6, 1.01, 1.3, 2.0)] + [0.8, 1.2, 2.0]
        got = [ps.self_consistency_roots(g, k).roots for k in ks]
        monkeypatch.setattr(ps.TruncatedGaussian, "t_kernel", t_kernel_v0110)
        g = dataclasses.replace(g)  # a cold law: its minimiser is solved again, on the old kernel
        assert repr(ps.critical_coupling(g)) == repr(kc)
        assert repr([ps.self_consistency_roots(g, k).roots for k in ks]) == repr(got)

    @pytest.mark.parametrize("g", [law for law in PDF_LAWS if not isinstance(law, ps.Uniform)]
                             + [ps.TruncatedGaussian(0, 0.3, 0.6), ps.TruncatedGaussian(0, 0.01, 0.3)], ids=repr)
    @pytest.mark.parametrize("cos2", [True, False])
    def test_kernel_is_pdf_bitwise(self, g, cos2):
        lo, hi = g.support()
        for a in (g.max_abs_omega, 1.3 * g.max_abs_omega):
            ends = np.arcsin(np.clip(np.divide([lo, hi], a), -1.0, 1.0)).tolist()
            t = np.linspace(max(ends[0] - 0.2, -math.pi / 2), min(ends[1] + 0.2, math.pi / 2), 194).tolist()
            t += ends + [np.nextafter(x, 0.0) for x in ends]
            t += [np.nextafter(x, -x) for x in (-math.pi / 2, math.pi / 2)]
            assert len(t) == 200 and a * math.sin(math.pi / 2) == a  # at a = max|omega| one end is met exactly
            # the law's kernel and v0.11.0's pdf callback
            kernel, oracle = g.t_kernel(a, cos2), t_kernel_v0110(g, a, cos2)
            for x in t:
                array = (math.cos(x) ** 2 if cos2 else 1.0) * g.pdf(np.array([a * math.sin(x)]))[0]
                for arg in (x, np.float64(x)):
                    assert kernel(arg) == oracle(arg) == array, (a, x)
            assert sum(kernel(x) > 0.0 for x in t) > 100

    @pytest.mark.parametrize("g", [law for law in EDGE_LAWS if not (core_inside(law) or isinstance(law, ps.Uniform))],
                             ids=repr)
    def test_integral_as_in_v0110(self, g):
        # no break point enters the adaptive I on these laws; a uniform law's
        # I is closed-form (TestUniformClosedForm)
        wmax = g.max_abs_omega
        for a in np.linspace(wmax, 3.0 * wmax, 25).tolist() + [np.float64(1.2 * wmax)]:
            assert g.integral(a) == integral_v0110(g, a), a


class TestUniformClosedForm:
    """The uniform law's integral: I and J in closed form, against 50-digit
    values of a^2 height (F(x) - F(y)) / 2, F(s) = asin s + s sqrt(1 - s^2),
    and of height (asin x - asin y) on x, y = the clipped support ends / a."""

    @staticmethod
    def reference(mp, g, a, cos2):
        lo, hi = g.support()
        a, lo, hi, height = mp.mpf(a), mp.mpf(lo), mp.mpf(hi), mp.mpf(g.pdf(g.center))
        x, y = min(hi, a) / a, max(lo, -a) / a
        if not cos2:
            return height * (mp.asin(x) - mp.asin(y))
        big_f = lambda z: mp.asin(z) + z * mp.sqrt(1 - z * z)
        return a * a * height * (big_f(x) - big_f(y)) / 2

    @staticmethod
    def cases():
        # scales 1e-100 to 1e100, both signs of the centre (and 0), widths
        # from 1e-9 to 2 of the centre; a at max|omega|, 1 and 3 ulps above,
        # and 1.001, 10 and 1000 times it
        for scale in (1e-100, 3e-51, 1e-10, 1.0, 7e10, 1e50, 1e100):
            for center in (-scale, 0.0, scale):
                for rel in (1e-9, 3e-7, 1e-4, 0.03, 0.5, 1.0, 2.0):
                    g = ps.Uniform(center, rel * scale)
                    a0 = g.max_abs_omega
                    ulp3 = np.nextafter(np.nextafter(np.nextafter(a0, math.inf), math.inf), math.inf)
                    for a in (a0, np.nextafter(a0, math.inf), ulp3, 1.001 * a0, 10.0 * a0, 1e3 * a0):
                        yield g, float(a)

    @pytest.mark.parametrize("cos2", [True, False])
    def test_matches_fifty_digit_reference(self, cos2):
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        with mp.workdps(50):
            for g, a in self.cases():
                want = self.reference(mp, g, a, cos2)
                worst = max(worst, float(abs((g.integral(a, cos2) - want) / want)))
        assert worst <= 2e-15

    def test_kc_and_roots_of_other_laws_as_in_v0170(self):
        # the laws that do not take the closed form keep their bits
        pinned = {
            ps.TruncatedGaussian(0, 0.3, 0.6): (0.6782970090312734, {
                0.6: [], 0.6782977: [0.8845688105983123], 0.7: [0.8977500830819967], 0.8: [0.9312754323923839],
                1.2: [0.9736545543063039], 2.0: [0.991041719549399]}),
            ps.Discrete((-0.3583, 0.3583), (0.5, 0.5)): (0.7166, {
                0.7166: [0.7071067811865476], 0.72: [0.6719122954668546, 0.7406307225604815],
                0.75: [0.5936753956140667, 0.8047046194986589], 0.8: [0.5269923446465417, 0.8498700304657989],
                1.2: [0.3145495341722851, 0.9492410602960653], 2.0: [0.182199743349528, 0.9832615387186494]}),
        }
        for g, (kc, roots) in pinned.items():
            g = dataclasses.replace(g)
            assert repr(ps.critical_coupling(g)) == repr(kc)
            for k, want in roots.items():
                assert repr(ps.self_consistency_roots(g, k).roots) == repr(want), (g, k)


class TestNarrowCore:
    """A truncated Gaussian whose mean +- 8 sigma core lies well inside the
    cut: an unsplit quad straddles the peak and never samples it."""

    @pytest.mark.parametrize("sigma", NARROW_SIGMAS)
    def test_kc(self, sigma):
        # h(max|omega|) = a + sigma^2 / (2 a) + O(sigma^4 / a^3) at a = 0.3
        assert abs(ps.critical_coupling(ps.TruncatedGaussian(0, sigma, 0.3)) - (0.3 + sigma**2 / 0.6)) <= 1e-14

    @pytest.mark.parametrize("sigma", NARROW_SIGMAS)
    def test_root_at_k_two(self, sigma):
        # K R^2 = K R - sigma^2 / (2 K R) + ...: R = 1 - sigma^2 / (2 K^2)
        g = ps.TruncatedGaussian(0, sigma, 0.3)
        roots = ps.self_consistency_roots(g, 2.0).roots
        assert len(roots) == 1 and abs(roots[0] - (1 - sigma**2 / 8)) <= 1e-14

    @pytest.mark.parametrize("sigma", NARROW_SIGMAS)
    @pytest.mark.parametrize("a", [0.3, 0.45, 1.0])
    def test_both_integrals_see_the_peak(self, sigma, a):
        g = ps.TruncatedGaussian(0, sigma, 0.3)
        want = a - sigma**2 / (2 * a)
        assert abs(g.integral(a) - want) <= 1e-14
        assert abs(st._omega_integral(g, a) - want) <= 1e-14

    @pytest.mark.parametrize("g", [ps.TruncatedGaussian(0, 0.3, 0.6), ps.TruncatedGaussian(0.1, 0.05, 0.4),
                                   ps.TruncatedGaussian(0.1, 0.01, 0.4), ps.Uniform(0, 0.5)], ids=repr)
    def test_no_break_points_unless_the_core_is_inside(self, g, monkeypatch):
        # the uniform law's t-form I is closed-form: only its omega form runs quad
        calls, adaptive = [], st.quad
        for module in (fd, st):
            monkeypatch.setattr(module, "quad", lambda *a, **kw: (calls.append(kw.get("points")), adaptive(*a, **kw))[1])
        g.integral(0.9)
        st._omega_integral(g, 0.5)
        inside = core_inside(g)
        assert len(calls) == (4 if inside else 1 if isinstance(g, ps.Uniform) else 2)
        assert calls[0] == (list(np.arcsin([x / 0.9 for x in g.core()])) if inside else None)


class TestStationaryDensity:
    def test_domain_error(self):
        with pytest.raises(ValueError):
            ps.StationaryDensity(ps.Uniform(0, 0.5), 1.0, 0.3)

    def test_direct_construction_checks_its_domain(self):
        # K r = 0.01 < max|omega| built, and sample_spec clipped every atom to +-pi/2
        with pytest.raises(ValueError, match="max"):
            ps.StationaryDensity(ps.Uniform(0, 0.5), 0.1, 0.1)
        assert ps.StationaryDensity(ps.Uniform(0, 0.5), 1.0, 0.5).critical_support

    def test_dirac_atomic(self):
        sd = ps.StationaryDensity(ps.Dirac(0.0), 1.0, 1.0, phi_star=0.4)
        assert isinstance(sd.g, ps.Discrete)
        assert sd.theta_plus(0.0) == pytest.approx(0.4)

    @pytest.mark.parametrize("g", [ps.Dirac(0.0), ps.Discrete((-0.3, 0.3), (0.5, 0.5))], ids=["dirac", "discrete"])
    def test_atomic_marginal_is_zero(self, g):
        # the marginal excludes atoms, so an atomic law has none to give
        sd = ps.StationaryDensity(g, 1.0, 1.0)
        theta = np.linspace(-np.pi, np.pi, 12).reshape(3, 4)
        got = sd.marginal(theta)
        assert got.shape == theta.shape and not np.any(got)
        assert sd.marginal(0.25).shape == ()

    def test_marginal_integrates_to_one(self):
        g = ps.Uniform(0, 0.3)
        k = 1.0
        r = ps.self_consistency_roots(g, k).largest
        sd = ps.StationaryDensity(g, k, r)
        edge = np.arcsin(0.3 / (k * r))
        val, _ = quad(sd.marginal, -np.pi, np.pi, points=[-edge, edge], limit=200,
                      epsabs=1e-12, epsrel=1e-12)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_sampled_order_parameter_closes(self):
        g = ps.Uniform(0, 0.3)
        k = 1.0
        r = ps.self_consistency_roots(g, k).largest
        sd = ps.StationaryDensity(g, k, r)
        meas = ps.discretize(sd.sample_spec(512), coupling=k)
        got = ps.weighted_order_parameter(meas.weights, meas.thetas).r
        assert got == pytest.approx(r, abs=1e-6)

    def test_round_trip_stationary_under_flow(self):
        g = ps.Uniform(0, 0.3)
        k = 1.0
        r = ps.self_consistency_roots(g, k).largest
        meas = ps.discretize(ps.StationaryDensity(g, k, r).sample_spec(512), coupling=k)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=10, record_every=50))
        assert np.max(np.abs(traj.r_series - r)) < 1e-3

    def test_critical_support_flag(self):
        g = ps.Uniform(0, 0.3)
        sd = ps.StationaryDensity(g, 1.0, 0.3)
        assert sd.critical_support
        sd2 = ps.StationaryDensity(g, 1.0, 0.9)
        assert not sd2.critical_support

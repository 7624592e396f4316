"""Partially synchronized stationary states of the non-identical mean-field
model: self-consistency roots, critical coupling, stationary densities.

With a = K R the self-consistency equation K R^2 = I(K R), I(a) = int
sqrt(a^2 - omega^2) g(omega) d omega, is real only for a >= max|omega| and
reads K = h(a) = a^2 / I(a); I(a) <= a keeps R = a / K <= 1. K_c = min h
(Strogatz, Physica D 143, 2000). omega = a sin t turns I into a^2 int
cos^2 t g(a sin t) dt, smooth up to the support edge. Each law takes I and J =
I'(a) / a in its own g.integral (a sum over atoms, a closed form or adaptive quad).

Every a the solver squares must square to a finite normal float, checked at
entry: K_c takes a0 = max|omega| <= a <= h(2 a0) <= 4 a0 / sqrt(3), as I(2 a0)
>= sqrt(3) a0, and roots a = K R <= K. So a0 = 0 or _A_MIN <= a0 <= _A_MAX / 4
(sqrt(3) to spare for the adaptive I's error), and 0 < K <= _A_MAX.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .freqdist import Discrete, FrequencyDistribution, brentq, quad
from .kinetic import AtomList

ROOT_TOL = 1e-10  # residual bound for every reported root
_SLACK = 1e-9  # of the edge certificate and of a root at an end; far above the adaptive I's error
_EDGE_ULPS = 4  # a support end this close to +-a is a square-root end
_A_MIN = math.sqrt(np.finfo(float).tiny)  # the least max|omega| whose square is a normal float
_A_MAX = math.sqrt(np.finfo(float).max)  # the largest a whose square is finite


@dataclass(frozen=True)
class SelfConsistencyResult:
    roots: List[float]
    largest: Optional[float]
    k_supercritical: bool


def self_consistency_residual(
    g: FrequencyDistribution,
    k: float,
    r: float,
    g_minus: Optional[FrequencyDistribution] = None,
    minus_mass: float = 0.0,
) -> float:
    """Residual int sqrt((KR)^2 - omega^2) (g - g-) - K R^2, each integral
    taken in omega by _omega_integral (QUADPACK's QAWS at a square-root end).

    g carries mass (1 - minus_mass) and g- carries minus_mass; with
    g_minus=None this is the stable-branch F(R) = I(K R) - K R^2.
    """
    a = abs(k * r)
    val = (1.0 - minus_mass) * _omega_integral(g, a)
    if g_minus is not None and minus_mass > 0.0:
        val -= minus_mass * _omega_integral(g_minus, a)
    return val - k * r * r


def _omega_integral(g: FrequencyDistribution, a: float) -> float:
    """I(a) in omega on the support clipped to [-a, a], a >= 0; it shares no code
    with the g.integral it checks. Atoms are squared and summed here; else quad takes
    the smooth factor, and an end within _EDGE_ULPS ulps of -+a gives its square root,
    measured from that end, to QAWS's weight (omega - lo)^(1/2) or (hi - omega)^(1/2).
    The ends of g's core inside the interval split it; the end pieces keep those weights."""
    if isinstance(g, Discrete):
        w, p = g.atoms()
        return float(np.sum(p * np.sqrt(np.maximum(a ** 2 - w ** 2, 0.0))))
    lo, hi = g.support()
    lo, hi = max(lo, -a), min(hi, a)
    if lo >= hi:
        return 0.0
    left, right = lo + a <= _EDGE_ULPS * math.ulp(a), a - hi <= _EDGE_ULPS * math.ulp(a)
    cuts = [lo, *(c for c in g.core() or () if lo < c < hi), hi]
    total = 0.0
    for i in range(len(cuts) - 1):
        at_lo, at_hi = left and i == 0, right and i == len(cuts) - 2
        f = lambda w: (1.0 if at_lo else math.sqrt(a + w)) * (1.0 if at_hi else math.sqrt(a - w)) * g.pdf(w)
        weight = {"weight": "alg", "wvar": (0.5 * at_lo, 0.5 * at_hi)} if at_lo or at_hi else {}
        total += quad(f, cuts[i], cuts[i + 1], epsabs=1e-12, epsrel=1e-12, limit=200, **weight)[0]
    return total


def _argmin_h(g: FrequencyDistribution, a0: float) -> Tuple[float, float, Dict[float, float]]:
    """(a*, h(a*), {a0: I(a0), a*: I(a*)}) for the minimiser a* of h = a^2 / I
    over a >= a0 = max|omega|: the two integrals the solve takes anyway.

    sqrt(a^2 - omega^2) is concave in a, so I is, and {h <= c} = {a^2 - c I <= 0}
    is an interval: h falls to its minimum and then rises, with no plateau. h'
    has the sign of 2 I - a I' = 2 I - a^2 J, J = I'/a (g.integral without cos2).
    When h does not fall from a0 (a0^2 J <= 2 I there, up to a relative dip of
    order _SLACK^2), a* = a0; atoms at +-a0 make J infinite. Otherwise Brent's
    method takes the sign change of h' on (a0, h(2 a0)]: h(a) >= a, so no
    minimiser lies past it; I is taken once at each a, a* included.
    At a0 = 0 (all mass at 0) h(a) = a, and a* = 0 with no integral; outside
    the domain of the module docstring it raises.
    """
    if a0 == 0.0:
        return 0.0, 0.0, {}
    if a0 < _A_MIN:
        raise ValueError(f"max|omega| = {a0:g} is so small that its square underflows")
    if a0 > _A_MAX / 4.0:
        raise ValueError(f"max|omega| = {a0:g} is so large that the square of h(2 max|omega|) overflows")
    i0, j0 = g.integral(a0), g.integral(a0, cos2=False)
    if 0.0 < a0 * a0 * j0 <= 2.0 * i0 * (1.0 + _SLACK):
        return a0, a0 * a0 / i0, {a0: i0}
    seen = {a0: i0}  # I at each a the solve takes: Brent's method ends on a*
    i = lambda a: seen[a] if a in seen else seen.setdefault(a, g.integral(a))
    h = lambda a: a * a / i(a)
    dh = lambda a: 2.0 * i0 - a0 * a0 * j0 if a == a0 else 2.0 * i(a) - a * a * g.integral(a, cos2=False)
    a_star = brentq(dh, a0, h(2.0 * a0), xtol=math.ulp(a0), rtol=4.0 * np.finfo(float).eps)
    return a_star, h(a_star), {a0: i0, a_star: i(a_star)}


def _min_h(g: FrequencyDistribution) -> Tuple[float, float, Dict[float, float]]:
    """_argmin_h(g, max|omega|), solved on g's first call and kept, with its
    two integrals, beside the constants __post_init__ keeps outside the
    fields: ==, hash, repr skip it, and pickling and dataclasses.replace build
    a law without it. Nothing keyed to a coupling is kept, and a solve that
    raises keeps nothing."""
    kept = vars(g).get("_min_h")
    if kept is None:
        kept = vars(g)["_min_h"] = _argmin_h(g, g.max_abs_omega)
    return kept


def self_consistency_roots(g: FrequencyDistribution, k: float) -> SelfConsistencyResult:
    """All roots R in (0, 1] of the self-consistency equation at coupling k.

    F(R) = I(K R) - K R^2 = (I / K) (K - h(K R)) has the sign of K - h(K R), so
    it has at most one root on each side of R* = a* / K (_min_h). Brent's
    method on I polishes the sign change, if any, on [max|omega| / K, R*] and
    on [R*, 1], F taken once at each distinct end, and read from the law's
    kept I where K R is bit for bit max|omega| or a* (on a warm law, then,
    only R = 1 and Brent's steps integrate); an end where |F| <= _SLACK is a
    candidate too (F = 0 at K R = max|omega|, which rounding may hide from the
    brackets). A root is kept only if the public residual is below ROOT_TOL
    there. An empty root list (subcritical k) is a normal outcome. The
    adaptive integrals split at the ends of g.core() that lie inside the
    support (a truncated Gaussian's mean +- 8 sigma when its cut is wider),
    so a narrow peak is sampled.
    """
    if not 0.0 < k <= _A_MAX:
        raise ValueError(f"coupling must be > 0 and at most {_A_MAX:.6g}, above which (K R)^2 overflows")
    wmax = g.max_abs_omega
    if wmax / k > 1.0:
        raise ValueError("support of g too wide: max|omega|/K > 1 admits no R")
    a_star, _, kept = _min_h(g)
    r_lo = max(wmax / k, 1e-12)
    r_star = min(max(a_star / k, r_lo), 1.0)
    f = lambda r: g.integral(k * r) - k * r * r
    ends = {r: kept[k * r] - k * r * r if k * r in kept else f(r) for r in dict.fromkeys((r_lo, r_star, 1.0))}

    roots: List[float] = []
    for lo, hi in ((r_lo, r_star), (r_star, 1.0)):
        if lo < hi and ends[lo] * ends[hi] <= 0.0:  # brentq's first two calls take the ends from here
            roots.append(brentq(lambda r: ends[r] if r in ends else f(r), lo, hi, xtol=1e-14, rtol=1e-15))
    # the lower end only counts when set by the support condition, otherwise
    # F ~ K R vanishes there spuriously as R -> 0; an end with |F| > _SLACK
    # cannot meet ROOT_TOL
    roots += [r for r in ((1.0,) if wmax / k < 1e-9 else (r_lo, 1.0)) if abs(ends[r]) <= _SLACK]
    roots = sorted(float(r) for r in roots if abs(self_consistency_residual(g, k, r)) < ROOT_TOL)
    deduped = [r for i, r in enumerate(roots) if i == 0 or r - roots[i - 1] > 1e-9]
    return SelfConsistencyResult(roots=deduped, largest=deduped[-1] if deduped else None,
                                 k_supercritical=bool(deduped))


def critical_coupling(g: FrequencyDistribution) -> float:
    """Infimum coupling with a self-consistency root, K_c = min h(a) over
    a >= max|omega| (_argmin_h): 0 when max|omega| = 0, and 2|omega_0| for
    Dirac(omega_0), the one-atom Discrete law. On a law without atoms whose
    slope I'(max|omega|) is at most 2 I / max|omega| there (every centred law
    whose density does not rise away from 0), K_c is h(max|omega|), after two
    integrals, I and I', on the law object's first call (later calls, and the
    roots calls' bracket ends at max|omega| and a*, read what _min_h kept);
    they split at g.core() as in self_consistency_roots.
    """
    return _min_h(g)[1]


@dataclass(frozen=True)
class StationaryDensity:
    """Stable-branch stationary state at coupling k with coherence r.

    Exposes the locked support curve theta_plus(omega), a pointwise
    evaluator for the phase marginal, and an atom-list spec sampling the
    full density for use as kinetic initial data.
    """

    g: FrequencyDistribution
    k: float
    r: float
    phi_star: float = 0.0

    def __post_init__(self):
        if self.k * self.r < self.g.max_abs_omega * (1.0 - 1e-12):
            raise ValueError("K*r must be >= max|omega| on the support of g")

    @property
    def critical_support(self) -> bool:
        """True when K R equals max|omega|: arcsin hits +-pi/2 and the
        marginal has integrable endpoint behaviour."""
        return abs(self.k * self.r - self.g.max_abs_omega) <= 1e-12 * max(1.0, self.k * self.r)

    def theta_plus(self, omega):
        """Locked phase phi* + arcsin(omega / (K R))."""
        return self.phi_star + np.arcsin(np.clip(np.asarray(omega) / (self.k * self.r), -1.0, 1.0))

    def marginal(self, theta):
        """Phase marginal K R |cos(theta - phi*)| g(K R sin(theta - phi*))
        on |theta - phi*| < pi/2, zero outside (atoms excluded)."""
        theta = np.asarray(theta, dtype=float)
        if isinstance(self.g, Discrete):
            return np.zeros_like(theta)
        d = (theta - self.phi_star + np.pi) % (2.0 * np.pi) - np.pi
        kr = self.k * self.r
        inside = np.abs(d) < np.pi / 2.0
        vals = np.where(inside, kr * np.abs(np.cos(d)) * self.g.pdf(kr * np.sin(d)), 0.0)
        return vals

    def sample_spec(self, n: int = 512) -> AtomList:
        """Atoms (g-quadrature weight, theta_plus(omega), omega)."""
        nodes, weights = self.g.quadrature(n)
        thetas = self.theta_plus(nodes)
        return AtomList(
            weights=tuple(weights / weights.sum()),
            thetas=tuple(np.atleast_1d(thetas)),
            omegas=tuple(np.atleast_1d(nodes)),
        )

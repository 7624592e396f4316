"""Partially synchronized stationary states of the non-identical mean-field
model: self-consistency roots, critical coupling, stationary densities.

With a = K R the self-consistency equation K R^2 = I(K R), I(a) = int
sqrt(a^2 - omega^2) g(omega) d omega, is real only for a >= max|omega| and
reads K = h(a) = a^2 / I(a); I(a) <= a keeps R = a / K <= 1. K_c = min h
(Strogatz, Physica D 143, 2000). omega = a sin t turns I into a^2 int
cos^2 t g(a sin t) dt, smooth up to the support edge; atoms are summed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import roots_legendre

from .freqdist import FrequencyDistribution
from .kinetic import AtomList

ROOT_TOL = 1e-10  # residual bound for every reported root
DEFAULT_GRID = 4096  # R-scan resolution; close root pairs near onset
K_MAX = 100.0  # cap on the critical coupling
_LEGENDRE_NODES = 16  # first Gauss-Legendre order in t of the vectorized I(a)
_MAX_LEGENDRE_NODES = 1024
_GRID_TOL = 1e-12  # end-point match that sets that order; below ROOT_TOL
_PRUNE_TOL = 1e-9  # how far a cell's bound must clear the answer; far above the rule's error
_SCAN_STRIDE = 32  # every _SCAN_STRIDE-th grid point (and the last) bounds a cell
_EDGE_ULPS = 4  # a support end this close to +-a is a square-root end
_legendre = lru_cache(maxsize=None)(roots_legendre)


class BracketNotFoundError(RuntimeError):
    """The critical coupling exceeds the k_max cap."""


@dataclass(frozen=True)
class SelfConsistencyResult:
    roots: List[float]
    largest: Optional[float]
    k_supercritical: bool


def generalized_residual(
    g_plus: FrequencyDistribution,
    k: float,
    r: float,
    g_minus: Optional[FrequencyDistribution] = None,
    minus_mass: float = 0.0,
) -> float:
    """Residual int sqrt((KR)^2 - omega^2) (g+ - g-) - K R^2, each integral
    taken in omega by _omega_integral (QUADPACK's QAWS at a square-root end).

    g+ carries mass (1 - minus_mass) and g- carries minus_mass; with
    g_minus=None this is the stable-branch equation.
    """
    a = abs(k * r)
    val = (1.0 - minus_mass) * _omega_integral(g_plus, a)
    if g_minus is not None and minus_mass > 0.0:
        val -= minus_mass * _omega_integral(g_minus, a)
    return val - k * r * r


def self_consistency_residual(g: FrequencyDistribution, k: float, r: float) -> float:
    """Stable-branch residual F(R) = I(K R) - K R^2, I in omega as in
    generalized_residual."""
    return generalized_residual(g, k, r)


def _omega_integral(g: FrequencyDistribution, a: float) -> float:
    """I(a) in omega on the support clipped to [-a, a], a >= 0; it shares no code
    with the t-form it checks. Atoms are summed; else quad takes the smooth factor,
    and an end within _EDGE_ULPS ulps of -+a gives its square root, measured from
    that end, to QAWS's weight (omega - lo)^(1/2) or (hi - omega)^(1/2). The ends
    of g's core inside the interval split it; the end pieces keep those weights."""
    if g.is_discrete:
        w, p = g.atoms()
        return float(np.sum(p * np.sqrt(np.maximum(a ** 2 - w * w, 0.0))))
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


def _integral_rule(g: FrequencyDistribution, a: np.ndarray):
    """The rule for I on an ascending array of a >= max|omega|, as a function
    of indices into a: exact sum over atoms, else a Gauss-Legendre rule in t.
    Its order, doubled from _LEGENDRE_NODES, is the first to match the adaptive
    I to _GRID_TOL at both ends of a (where narrow features of g are resolved
    worst). If no order up to _MAX_LEGENDRE_NODES matches, the adaptive I."""
    if g.is_discrete:
        return lambda i: _atom_integral(g, a[i, None])
    ends = a[[0, -1]]
    ref = np.array([_integral(g, x) for x in ends])
    n = _LEGENDRE_NODES
    while np.max(np.abs(_legendre_integral(g, ends, n) - ref)) > _GRID_TOL:
        if n == _MAX_LEGENDRE_NODES:  # no rule resolves g: the adaptive I at each a
            return lambda i: np.array([_integral(g, x) for x in a[i]])
        n *= 2
    return lambda i: _legendre_integral(g, a[i], n)


def _integral_grid(g: FrequencyDistribution, a: np.ndarray) -> np.ndarray:
    """_integral_rule at every a (the scans below use _pruned_integral)."""
    return _integral_rule(g, a)(slice(None))


def _pruned_integral(g: FrequencyDistribution, a: np.ndarray, cell) -> np.ndarray:
    """_integral_rule at every _SCAN_STRIDE-th a, the last, and inside the cells where cell(ends, I there)
    is NaN; the rest take its value. I increases with a: a cell's end values bound it inside."""
    rule, ends = _integral_rule(g, a), np.append(np.arange(0, a.size - 1, _SCAN_STRIDE), a.size - 1)
    val = rule(ends)
    out = np.append(np.repeat(cell(ends, val), np.diff(ends)), 0.0)
    out[ends] = val
    todo = np.flatnonzero(np.isnan(out))
    out[todo] = rule(todo)
    return out


def _atom_integral(g: FrequencyDistribution, a: np.ndarray) -> np.ndarray:
    """I summed over g's atoms at each a of an (m, 1) column."""
    w, p = g.atoms()
    return np.sqrt(np.maximum(a ** 2 - w * w, 0.0)) @ p


def _legendre_integral(g: FrequencyDistribution, a: np.ndarray, n: int) -> np.ndarray:
    """The n-node Gauss-Legendre rule in t for I at each a >= max|omega|."""
    t_lo, t_hi = np.arcsin(np.minimum(np.maximum(np.divide.outer(g.support(), a), -1.0), 1.0))
    mid, half = 0.5 * (t_hi + t_lo), 0.5 * (t_hi - t_lo)
    x, wx = _legendre(n)
    s = np.multiply.outer(half, x)  # s = sin(mid + half x), then 1 - s^2 and
    np.sin(np.add(s, mid[:, None], out=s), out=s)  # its product with g(a s)
    dens = g.pdf(a[:, None] * s)  # in the same buffer
    np.subtract(1.0, np.multiply(s, s, out=s), out=s)
    return a * a * half * (np.multiply(s, dens, out=s) @ wx)


def _integral(g: FrequencyDistribution, a: float) -> float:
    """I at one a >= max|omega| by adaptive quadrature in t (atoms summed)."""
    if g.is_discrete:
        return float(_atom_integral(g, np.array([[a]]))[0])
    a = float(a)
    return a * a * _t_quad(g, a)


def _t_quad(g: FrequencyDistribution, a: float, cos2: bool = True) -> float:
    """Adaptive quad of g.t_kernel(a, cos2) over the t-interval of g's support at
    a >= max|omega|, with the t-images of the ends of g's core inside the support
    as break points. np.arcsin, not math.asin: they differ in the last bit."""
    lo, hi = g.support()
    ends = [lo, hi, *(c for c in g.core() or () if lo < c < hi)]
    t = np.arcsin([min(max(w / a, -1.0), 1.0) for w in ends]).tolist()
    return quad(g.t_kernel(a, cos2), t[0], t[1], epsabs=1e-15, epsrel=1e-13, limit=200, points=t[2:] or None)[0]


def _edge_kc(g: FrequencyDistribution, a0: float) -> Optional[float]:
    """h(a0), a0 = max|omega|, when concavity certifies it as min h; else None.

    sqrt(a^2 - omega^2) is concave in a, so on [a0, inf) I lies below its
    tangent I0 + a0 J1 (a - a0), J1 = int g(a0 sin t) dt, and h(a) >= a^2 over
    that tangent, which does not fall from a0 while a0^2 J1 <= 2 I0 (up to a
    relative dip of order _PRUNE_TOL^2). Atoms at +-a0 make the slope infinite.
    """
    if g.is_discrete:
        return None
    i0 = _integral(g, a0)
    j1 = _t_quad(g, a0, cos2=False)
    return a0 * a0 / i0 if 0.0 < a0 * a0 * j1 <= 2.0 * i0 * (1.0 + _PRUNE_TOL) else None


def self_consistency_roots(g: FrequencyDistribution, k: float,
                           grid: int = DEFAULT_GRID) -> SelfConsistencyResult:
    """All roots R in (0, 1] of the self-consistency equation at coupling k.

    Takes the signs of F(R) = I(K R) - K R^2 on a uniform grid over
    [max|omega|/k, 1], polishes every sign change with Brent's method on the
    adaptive I, and keeps a root only if the public residual is below ROOT_TOL
    there. An empty root list (subcritical k) is a normal outcome. In a cell
    (R_i, R_j), F lies in [I_i - K R_j^2, I_j - K R_i^2]: only cells where that
    range is not clear of 0 by _PRUNE_TOL are evaluated (_pruned_integral).
    Both adaptive integrals split at the ends of g.core() that lie inside the
    support (a truncated Gaussian's mean +- 8 sigma when its cut is wider),
    so a narrow peak is sampled.
    """
    if not 0.0 < k < math.inf:
        raise ValueError("coupling must be finite and > 0")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    wmax = g.max_abs_omega
    if wmax / k > 1.0:
        raise ValueError("support of g too wide: max|omega|/K > 1 admits no R")
    r_grid = np.linspace(max(wmax / k, 1e-12), 1.0, grid)
    a, kr2 = k * r_grid, k * r_grid * r_grid
    cell = lambda e, v: np.where(v[1:] - kr2[e[:-1]] < -_PRUNE_TOL, -np.inf,
                                 np.where(v[:-1] - kr2[e[1:]] > _PRUNE_TOL, np.inf, np.nan))
    val = _pruned_integral(g, a, cell) - kr2
    sign = np.sign(val)
    f = lambda r: _integral(g, k * r) - k * r * r

    roots: List[float] = []
    for i in np.flatnonzero((sign[:-1] != 0.0) & (sign[:-1] * sign[1:] <= 0.0)):
        lo, hi = float(r_grid[i]), float(r_grid[i + 1])
        ends = {lo: f(lo), hi: f(hi)}
        if ends[lo] * ends[hi] <= 0.0:  # brentq's first two calls take the ends from here
            roots.append(brentq(lambda r: ends[r] if r in ends else f(r), lo, hi, xtol=1e-14, rtol=1e-15))
    # endpoint roots the sign scan cannot bracket (e.g. F = 0 at K R = max|omega|);
    # the lower endpoint only counts when set by the support condition,
    # otherwise F ~ K R vanishes there spuriously as R -> 0. The rule matches
    # the adaptive I to _GRID_TOL at both ends, so an end with |F| > _PRUNE_TOL
    # there cannot meet ROOT_TOL
    ends = [-1] if wmax / k < 1e-9 else [0, -1]
    roots += [r_grid[i] for i in ends if abs(val[i]) <= _PRUNE_TOL]
    roots = sorted(float(r) for r in roots if abs(self_consistency_residual(g, k, r)) < ROOT_TOL)
    deduped = [r for i, r in enumerate(roots) if i == 0 or r - roots[i - 1] > 1e-9]
    return SelfConsistencyResult(roots=deduped, largest=deduped[-1] if deduped else None,
                                 k_supercritical=bool(deduped))


def critical_coupling(g: FrequencyDistribution, kc_tol: float = 1e-6, k_max: float = K_MAX,
                      grid: int = 1024) -> float:
    """Infimum coupling with a self-consistency root, K_c = min h(a) over
    a >= max|omega|: 0 when max|omega| = 0, and 2|omega_0| for a Dirac law at
    omega_0, as for the one-atom Discrete law. On a law
    without atoms whose slope I'(max|omega|) is at most 2 I / max|omega| there
    (every centred law whose density does not rise away from 0), K_c is
    h(max|omega|), returned after two adaptive integrals with no scan
    (_edge_kc); kc_tol and grid then play no part. Otherwise,
    as h(a) >= a, no minimiser exceeds h(2 max|omega|): h is scanned on `grid`
    points up to there and the minimum polished by bounded Brent to kc_tol in
    a, with h(max|omega|) always a candidate. In a cell (a_i, a_j),
    h >= a_i^2 / I_j: only cells where that bound is within _PRUNE_TOL
    (relative) of the least h at the cell ends are evaluated. Every adaptive
    integral splits at the ends of g.core() inside the support, as in
    self_consistency_roots: on a narrow truncated Gaussian the unsplit I
    missed the peak, and h(2 max|omega|) overflowed or K_c exceeded the cap.
    """
    if not 0.0 < kc_tol < math.inf:
        raise ValueError("kc_tol must be finite and > 0")
    if not 0.0 < k_max < math.inf:
        raise ValueError("k_max must be finite and > 0")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    wmax = g.max_abs_omega
    if wmax == 0.0:
        return 0.0

    kc = _edge_kc(g, wmax)
    if kc is None:
        kc = _scanned_kc(g, wmax, kc_tol, grid)
    if kc > k_max:
        raise BracketNotFoundError(f"K_c = {kc:g} exceeds the cap k_max = {k_max:g}")
    return kc


def _scanned_kc(g: FrequencyDistribution, wmax: float, kc_tol: float, grid: int) -> float:
    """min h by the pruned scan up to h(2 wmax) and a bounded-Brent polish."""
    def h(a: float) -> float:
        i_a = _integral(g, a)
        return a * a / i_a if i_a > 0.0 else math.inf

    a_grid = np.linspace(wmax, h(2.0 * wmax), grid)
    a2 = a_grid * a_grid
    cell = lambda e, v: np.where(a2[e[:-1]] / v[1:] <= np.min(a2[e] / v) * (1.0 + _PRUNE_TOL), np.nan, 0.0)
    with np.errstate(divide="ignore"):
        i = int(np.argmin(a2 / _pruned_integral(g, a_grid, cell)))
    polish = minimize_scalar(h, bounds=(a_grid[max(i - 1, 0)], a_grid[min(i + 1, grid - 1)]),
                             method="bounded", options={"xatol": kc_tol})
    return min(h(wmax), float(polish.fun))


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

    @property
    def is_atomic(self) -> bool:
        return bool(getattr(self.g, "is_discrete", False))

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
        if self.is_atomic:
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


def stationary_density(
    g: FrequencyDistribution,
    k: float,
    r: float,
    phi_star: float = 0.0,
) -> StationaryDensity:
    """Build the stable-branch stationary density for coupling k and
    coherence r; requires K r to cover the support of g."""
    if k * r < g.max_abs_omega * (1.0 - 1e-12):
        raise ValueError("K*r must be >= max|omega| on the support of g")
    return StationaryDensity(g=g, k=k, r=r, phi_star=phi_star)

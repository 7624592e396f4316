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

from .freqdist import Dirac, FrequencyDistribution
from .kinetic import AtomList

ROOT_TOL = 1e-10  # residual bound for every reported root
DEFAULT_GRID = 4096  # R-scan resolution; close root pairs near onset
K_MAX = 100.0  # cap on the critical coupling
_LEGENDRE_NODES = 16  # first Gauss-Legendre order in t of the vectorized I(a)
_MAX_LEGENDRE_NODES = 1024
_GRID_TOL = 1e-12  # end-point match that sets that order; below ROOT_TOL
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
    that end, to QAWS's weight (omega - lo)^(1/2) or (hi - omega)^(1/2)."""
    if g.is_discrete:
        w, p = g.atoms()
        return float(np.sum(p * np.sqrt(np.maximum(a ** 2 - w * w, 0.0))))
    lo, hi = g.support()
    lo, hi = max(lo, -a), min(hi, a)
    if lo >= hi:
        return 0.0
    left, right = lo + a <= _EDGE_ULPS * math.ulp(a), a - hi <= _EDGE_ULPS * math.ulp(a)
    f = lambda w: (1.0 if left else math.sqrt(a + w)) * (1.0 if right else math.sqrt(a - w)) * g.pdf(w)
    weight = {"weight": "alg", "wvar": (0.5 * left, 0.5 * right)} if left or right else {}
    return quad(f, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200, **weight)[0]


def _integral_grid(g: FrequencyDistribution, a: np.ndarray) -> np.ndarray:
    """I on an ascending array of a >= max|omega|: exact sum over atoms, else
    a Gauss-Legendre rule in t. Its order, doubled from _LEGENDRE_NODES, is
    the first to match the adaptive I to _GRID_TOL at both ends of a (where
    narrow features of g are resolved worst); only then is all of a evaluated.
    If no order up to _MAX_LEGENDRE_NODES matches, the adaptive I is used."""
    if g.is_discrete:
        w, p = g.atoms()
        return np.sqrt(np.maximum(a[:, None] ** 2 - w * w, 0.0)) @ p
    ends = a[[0, -1]]
    ref = np.array([_integral(g, x) for x in ends])
    n = _LEGENDRE_NODES
    while np.max(np.abs(_legendre_integral(g, ends, n) - ref)) > _GRID_TOL:
        if n == _MAX_LEGENDRE_NODES:  # no rule resolves g: the adaptive I at each a
            return np.array([_integral(g, x) for x in a])
        n *= 2
    return _legendre_integral(g, a, n)


def _legendre_integral(g: FrequencyDistribution, a: np.ndarray, n: int) -> np.ndarray:
    """The n-node Gauss-Legendre rule in t for I at each a >= max|omega|."""
    t_lo, t_hi = np.arcsin(np.clip(np.divide.outer(g.support(), a), -1.0, 1.0))
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
        return float(_integral_grid(g, np.array([a]))[0])
    a = float(a)
    t_lo, t_hi = np.arcsin(np.clip(np.divide(g.support(), a), -1.0, 1.0))
    val, _ = quad(lambda t: math.cos(t) ** 2 * g.pdf(a * math.sin(t)), t_lo, t_hi,
                  epsabs=1e-15, epsrel=1e-13, limit=200)
    return a * a * val


def self_consistency_roots(g: FrequencyDistribution, k: float,
                           grid: int = DEFAULT_GRID) -> SelfConsistencyResult:
    """All roots R in (0, 1] of the self-consistency equation at coupling k.

    Scans F(R) = I(K R) - K R^2 on a uniform grid over [max|omega|/k, 1],
    polishes every sign change with Brent's method on the adaptive I, and
    keeps a root only if the public residual is below ROOT_TOL there.
    An empty root list (subcritical k) is a normal outcome.
    """
    if not 0.0 < k < math.inf:
        raise ValueError("coupling must be finite and > 0")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    wmax = g.max_abs_omega
    if wmax / k > 1.0:
        raise ValueError("support of g too wide: max|omega|/K > 1 admits no R")
    r_grid = np.linspace(max(wmax / k, 1e-12), 1.0, grid)
    sign = np.sign(_integral_grid(g, k * r_grid) - k * r_grid * r_grid)
    f = lambda r: _integral(g, k * r) - k * r * r

    roots: List[float] = []
    for i in np.flatnonzero((sign[:-1] != 0.0) & (sign[:-1] * sign[1:] <= 0.0)):
        if f(r_grid[i]) * f(r_grid[i + 1]) <= 0.0:
            roots.append(brentq(f, r_grid[i], r_grid[i + 1], xtol=1e-14, rtol=1e-15))
    # endpoint roots the sign scan cannot bracket (e.g. R = 1 for Dirac g);
    # the lower endpoint only counts when set by the support condition,
    # otherwise F ~ K R vanishes there spuriously as R -> 0
    roots += [r_grid[-1]] if wmax / k < 1e-9 else [r_grid[0], r_grid[-1]]
    roots = sorted(float(r) for r in roots if abs(self_consistency_residual(g, k, r)) < ROOT_TOL)
    deduped = [r for i, r in enumerate(roots) if i == 0 or r - roots[i - 1] > 1e-9]
    return SelfConsistencyResult(roots=deduped, largest=deduped[-1] if deduped else None,
                                 k_supercritical=bool(deduped))


def critical_coupling(g: FrequencyDistribution, kc_tol: float = 1e-6, k_max: float = K_MAX,
                      grid: int = 1024) -> float:
    """Infimum coupling with a self-consistency root, K_c = min h(a) over
    a >= max|omega|. As h(a) >= a, no minimiser exceeds h(2 max|omega|): h is
    scanned on `grid` points up to there and the minimum polished by bounded
    Brent to kc_tol in a. h(max|omega|), the minimum for the uniform law, is
    always a candidate. A Dirac law is supercritical for every K > 0.
    """
    if not 0.0 < kc_tol < math.inf:
        raise ValueError("kc_tol must be finite and > 0")
    if not 0.0 < k_max < math.inf:
        raise ValueError("k_max must be finite and > 0")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    wmax = g.max_abs_omega
    if isinstance(g, Dirac) or wmax == 0.0:
        return 0.0

    def h(a: float) -> float:
        i_a = _integral(g, a)
        return a * a / i_a if i_a > 0.0 else math.inf

    a_grid = np.linspace(wmax, h(2.0 * wmax), grid)
    with np.errstate(divide="ignore"):
        i = int(np.argmin(a_grid * a_grid / _integral_grid(g, a_grid)))
    polish = minimize_scalar(h, bounds=(a_grid[max(i - 1, 0)], a_grid[min(i + 1, grid - 1)]),
                             method="bounded", options={"xatol": kc_tol})
    kc = min(h(wmax), float(polish.fun))
    if kc > k_max:
        raise BracketNotFoundError(f"K_c = {kc:g} exceeds the cap k_max = {k_max:g}")
    return kc


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

"""Reference values for the output checks, computed without phasesync.

Closed forms where they exist; otherwise scipy's adaptive quad with brentq
(roots) or a bounded scalar minimisation (critical coupling), written here
from the model's equations:

    K R^2 = I(K R),  I(a) = int sqrt(a^2 - w^2) g(w) dw,  a = K R >= max|w|,
    K_c = min over a >= max|w| of a^2 / I(a).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

_QUAD_TOL = 1e-13


def uniform_kc(gamma: float) -> float:
    """K_c for the zero-centred uniform law of half-width gamma: 4 gamma / pi."""
    return 4.0 * gamma / math.pi


def uniform_integral(a: float, gamma: float) -> float:
    """I(a) for the uniform law on [-gamma, gamma], a >= gamma."""
    return (gamma * math.sqrt(max(a * a - gamma * gamma, 0.0)) + a * a * math.asin(min(gamma / a, 1.0))) / (2.0 * gamma)


def two_atom_kc(w: float) -> float:
    """K_c for atoms +-w of mass 1/2: min of a^2 / sqrt(a^2 - w^2) is 2 w."""
    return 2.0 * w


def two_atom_roots(w: float, k: float) -> list[float]:
    """R^2 = (1 +- sqrt(1 - 4 w^2 / K^2)) / 2; both satisfy K R >= w."""
    disc = 1.0 - 4.0 * w * w / (k * k)
    if disc < 0:
        return []
    s = math.sqrt(disc)
    return sorted({math.sqrt((1.0 - s) / 2.0), math.sqrt((1.0 + s) / 2.0)})


class TruncGauss:
    """Gaussian(mean, sigma) restricted to |w - mean| <= cut, renormalised."""

    def __init__(self, mean: float, sigma: float, cut: float):
        self.mean, self.sigma, self.cut = mean, sigma, cut
        self._z = math.erf(cut / (sigma * math.sqrt(2.0))) * sigma * math.sqrt(2.0 * math.pi)
        self.wmax = max(abs(mean - cut), abs(mean + cut))

    def integral(self, a: float) -> float:
        def f(w):
            d = (w - self.mean) / self.sigma
            return math.sqrt(max(a * a - w * w, 0.0)) * math.exp(-0.5 * d * d) / self._z

        return quad(f, self.mean - self.cut, self.mean + self.cut,
                    epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)[0]

    def kc(self) -> float:
        h = lambda a: a * a / self.integral(a)
        res = minimize_scalar(h, bounds=(self.wmax, 4.0 * self.wmax), method="bounded",
                              options={"xatol": 1e-12})
        return min(h(self.wmax), float(res.fun))


def _roots_on(f, lo: float, hi: float, n: int) -> list[float]:
    """Every sign change of f on an n-point grid over [lo, hi], polished."""
    rs = np.linspace(lo, hi, n)
    fs = [f(r) for r in rs]
    roots = []
    for i in range(n - 1):
        if fs[i] == 0.0:
            roots.append(float(rs[i]))
        elif fs[i] * fs[i + 1] < 0:
            roots.append(float(brentq(f, rs[i], rs[i + 1], xtol=1e-15, rtol=1e-15)))
    if fs[-1] == 0.0:
        roots.append(float(rs[-1]))
    return roots


def uniform_roots(gamma: float, k: float) -> list[float]:
    """Self-consistency roots R in [gamma/K, 1] for the uniform law."""
    if gamma / k > 1.0:
        return []
    return _roots_on(lambda r: uniform_integral(k * r, gamma) - k * r * r, gamma / k, 1.0, 2001)


def tgauss_roots(law: TruncGauss, k: float) -> list[float]:
    """Self-consistency roots R in [max|w|/K, 1] for a truncated Gaussian."""
    if law.wmax / k > 1.0:
        return []
    return _roots_on(lambda r: law.integral(k * r) - k * r * r, law.wmax / k, 1.0, 401)

"""Natural-frequency distributions with bounded support.

Tagged union of laws (Dirac, uniform, discrete, truncated Gaussian), each
exposing a pdf (or atoms), support bounds, quadrature nodes/weights, and
an expectation operator. Support is always compact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np
from scipy.integrate import quad

__all__ = [
    "FrequencyDistribution",
    "Dirac",
    "Uniform",
    "Discrete",
    "TruncatedGaussian",
]


class FrequencyDistribution:
    """Base interface; see the concrete laws below."""

    is_discrete: bool = False

    def pdf(self, omega):  # pragma: no cover - abstract
        raise NotImplementedError

    def support(self) -> Tuple[float, float]:  # pragma: no cover - abstract
        raise NotImplementedError

    def quadrature(self, n: int) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        raise NotImplementedError

    def expect(self, fn: Callable[[np.ndarray], np.ndarray], tol: float = 1e-12) -> float:
        """Adaptive integral of fn against the law (exact sum when discrete)."""
        lo, hi = self.support()
        val, _ = quad(
            lambda w: fn(np.asarray(w)) * self.pdf(w),
            lo,
            hi,
            epsabs=tol,
            epsrel=tol,
            limit=200,
        )
        return float(val)

    @property
    def max_abs_omega(self) -> float:
        lo, hi = self.support()
        return max(abs(lo), abs(hi))


@dataclass(frozen=True)
class Dirac(FrequencyDistribution):
    """All mass at a single frequency (identical oscillators)."""

    omega0: float = 0.0
    is_discrete: bool = field(default=True, init=False)

    def support(self):
        return (self.omega0, self.omega0)

    def atoms(self):
        return np.array([self.omega0]), np.array([1.0])

    def quadrature(self, n: int):
        return self.atoms()

    def expect(self, fn, tol: float = 1e-12) -> float:
        return float(fn(np.asarray(self.omega0)))


@dataclass(frozen=True)
class Uniform(FrequencyDistribution):
    """Uniform on [center - halfwidth, center + halfwidth]."""

    center: float = 0.0
    halfwidth: float = 0.5

    def __post_init__(self):
        if self.halfwidth <= 0:
            raise ValueError("halfwidth must be > 0")
        # constants outside the fields: ==, hash, repr skip them; replace recomputes
        vars(self).update(_lo=self.center - self.halfwidth, _hi=self.center + self.halfwidth,
                          _height=1.0 / (2.0 * self.halfwidth))

    def pdf(self, omega):
        if isinstance(omega, float):  # a quad node
            return self._height if self._lo <= omega <= self._hi else 0.0
        omega = np.asarray(omega)
        return np.where((omega >= self._lo) & (omega <= self._hi), self._height, 0.0)

    def support(self):
        return (self._lo, self._hi)

    def quadrature(self, n: int):
        lo, hi = self.support()
        edges = np.linspace(lo, hi, n + 1)
        nodes = 0.5 * (edges[:-1] + edges[1:])
        return nodes, np.full(n, 1.0 / n)


@dataclass(frozen=True)
class Discrete(FrequencyDistribution):
    """Finitely many frequency atoms (omegas, probs)."""

    omegas: tuple
    probs: tuple
    is_discrete: bool = field(default=True, init=False)

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if w.shape != p.shape or w.ndim != 1 or w.size < 1:
            raise ValueError("omegas and probs must be 1-d and the same length")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        object.__setattr__(self, "omegas", tuple(float(x) for x in w))
        object.__setattr__(self, "probs", tuple(float(x) for x in p))

    def atoms(self):
        return np.asarray(self.omegas), np.asarray(self.probs)

    def support(self):
        return (min(self.omegas), max(self.omegas))

    def quadrature(self, n: int):
        return self.atoms()

    def expect(self, fn, tol: float = 1e-12) -> float:
        w, p = self.atoms()
        return float(np.sum(p * fn(w)))


@dataclass(frozen=True)
class TruncatedGaussian(FrequencyDistribution):
    """Gaussian(mean, sigma) truncated to [mean - cut, mean + cut]."""

    mean: float = 0.0
    sigma: float = 1.0
    cut: float = 2.0

    def __post_init__(self):
        if self.sigma <= 0 or self.cut <= 0:
            raise ValueError("sigma and cut must be > 0")
        # as in Uniform; norm is the untruncated mass inside the cut
        norm = math.erf(self.cut / (self.sigma * math.sqrt(2.0)))
        vars(self).update(_lo=self.mean - self.cut, _hi=self.mean + self.cut,
                          _height=1.0 / (self.sigma * math.sqrt(2.0 * math.pi) * norm),
                          _scale=-0.5 / (self.sigma * self.sigma))

    def pdf(self, omega):
        # np.exp, not math.exp, on a quad node too: numpy's SIMD exp may
        # differ from libm's by an ulp, and the two paths agree bitwise
        if isinstance(omega, float):
            d = omega - self.mean
            inside = self._lo <= omega <= self._hi
            return float(np.exp(self._scale * d * d)) * self._height if inside else 0.0
        omega = np.asarray(omega)
        d = omega - self.mean
        inside = (omega >= self._lo) & (omega <= self._hi)
        return np.where(inside, np.exp(self._scale * d * d) * self._height, 0.0)

    def support(self):
        return (self._lo, self._hi)

    def quadrature(self, n: int):
        lo, hi = self.support()
        edges = np.linspace(lo, hi, n + 1)
        nodes = 0.5 * (edges[:-1] + edges[1:])
        weights = self.pdf(nodes) * (edges[1] - edges[0])
        return nodes, weights / weights.sum()

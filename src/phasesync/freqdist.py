"""Compact laws on the line: natural-frequency distributions, and phase laws.

Tagged union of laws (uniform, discrete with Dirac as its one-atom case,
truncated Gaussian), each exposing a pdf (or atoms), support bounds,
quadrature nodes/weights, an expectation operator, and the self-consistency
integral I(a) or its slope I'(a) / a (integral: a sum over atoms, a closed
form for the uniform law, adaptive quad for the truncated Gaussian); a
density also gives the core that adaptive quadrature splits at. Support is
always compact. Uniform and TruncatedGaussian of half-width at most pi
also serve as the phase law of a kinetic datum, on an arc of the circle
(see kinetic.ProductSpec).
"""
from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "FrequencyDistribution",
    "Dirac",
    "Uniform",
    "Discrete",
    "TruncatedGaussian",
]


# the largest |end| of a support or arc: any two of its points add and
# subtract without overflow (linspace and the midpoints of its cells)
_HALF_MAX = float(np.finfo(float).max) / 2.0


def _lazy(module: str, name: str) -> Callable:
    """module.name, imported at the first call and kept: the simulating modes
    never integrate or solve, so they start without SciPy."""
    load = functools.cache(lambda: getattr(importlib.import_module(module), name))
    return lambda *args, **kwargs: load()(*args, **kwargs)


quad, brentq = _lazy("scipy.integrate", "quad"), _lazy("scipy.optimize", "brentq")


class FrequencyDistribution:
    """Base interface; see the concrete laws below."""

    def pdf(self, omega):  # pragma: no cover - abstract
        raise NotImplementedError

    def support(self) -> Tuple[float, float]:  # pragma: no cover - abstract
        raise NotImplementedError

    def quadrature(self, n: int) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        raise NotImplementedError

    def integral(self, a: float, cos2: bool = True) -> float:  # pragma: no cover - abstract
        """I(a) at a >= max|omega|, or its slope J = I'(a) / a without cos2 (see stationary)."""
        raise NotImplementedError

    def __reduce__(self):
        # rebuilt from the init fields, so __post_init__ remakes the cached constants
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def core(self) -> Optional[Tuple[float, float]]:
        """An interval outside which the density is negligible, or None; an end
        strictly inside the support is a break point for adaptive quadrature."""
        return None

    def _cells(self, n: int) -> Tuple[np.ndarray, float]:
        """Midpoints of n equal cells of the support, and the cell width."""
        if n < 1:
            raise ValueError("quadrature needs n >= 1 nodes")
        lo, hi = self.support()
        edges = np.linspace(lo, hi, n + 1)
        return 0.5 * (edges[:-1] + edges[1:]), edges[1] - edges[0]

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Adaptive integral of fn against the law (exact sum when discrete)."""
        lo, hi = self.support()
        val, _ = quad(
            lambda w: fn(np.asarray(w)) * self.pdf(w),
            lo,
            hi,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        return float(val)

    @property
    def max_abs_omega(self) -> float:
        lo, hi = self.support()
        return max(abs(lo), abs(hi))


@dataclass(frozen=True)
class Uniform(FrequencyDistribution):
    """Uniform on [center - halfwidth, center + halfwidth]."""

    center: float = 0.0
    halfwidth: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.center):  # else the width check below blames the width
            raise ValueError("center must be finite")
        if not 0.0 < self.halfwidth <= _HALF_MAX - abs(self.center):
            raise ValueError("halfwidth must be > 0 and |center| + halfwidth at most max float / 2")
        # constants outside the fields: ==, hash, repr skip them; replace recomputes
        vars(self).update(_lo=self.center - self.halfwidth, _hi=self.center + self.halfwidth,
                          _height=1.0 / (2.0 * self.halfwidth))

    def pdf(self, omega):
        if isinstance(omega, float):  # a quad node
            return self._height if self._lo <= omega <= self._hi else 0.0
        inside = np.greater_equal(omega, self._lo) & np.less_equal(omega, self._hi)
        return np.multiply(inside, self._height, out=np.empty(inside.shape))

    def integral(self, a, cos2=True):
        # closed form on the support clipped to [-a, a], reflected so that
        # x = hi / a >= |y|, y = lo / a (I and J are even in omega): with
        # dt = asin x - asin y, I / a^2 = height (dt + [sin t cos t]) / 2 =
        # height ((dt - sin dt) + 2 sin(m)^2 sin dt) / 2, m = (acos x + acos y) / 2,
        # and J = height dt. Each sum below adds terms of one sign (a - hi is exact
        # near the edge), so both keep their relative accuracy near +-a and when narrow
        a = float(a)
        lo, hi = (-self._hi, -self._lo) if -self._lo > self._hi else (self._lo, self._hi)
        lo, hi = max(lo, -a), min(hi, a)
        cx, cy = math.sqrt(a - hi) * math.sqrt(a + hi) / a, math.sqrt(a - lo) * math.sqrt(a + lo) / a
        dt = 2.0 * math.atan2((hi - lo) / a, cx + cy)  # tan(dt / 2) = (x - y) / (cos asin x + cos asin y)
        if not cos2:
            return self._height * dt
        sin_m = math.sin(0.5 * (math.atan2(cx, hi / a) + math.atan2(cy, lo / a)))
        if dt < 1.0:  # dt - sin dt by its series, which does not cancel
            less_sin = term = dt ** 3 / 6.0
            for k in range(4, 20, 2):
                term *= -dt * dt / (k * (k + 1))
                less_sin += term
        else:
            less_sin = dt - math.sin(dt)
        return a * a * (0.5 * self._height * (less_sin + 2.0 * sin_m * sin_m * math.sin(dt)))

    def support(self):
        return (self._lo, self._hi)

    def quadrature(self, n: int):
        nodes, _ = self._cells(n)
        return nodes, np.full(n, 1.0 / n)


@dataclass(frozen=True)
class Discrete(FrequencyDistribution):
    """Finitely many frequency atoms (omegas, probs); the law is those of probability > 0."""

    omegas: tuple
    probs: tuple

    def __post_init__(self):
        w = np.array(self.omegas, dtype=float)  # copies, frozen below as the atoms
        p = np.array(self.probs, dtype=float)
        if w.shape != p.shape or w.ndim != 1 or w.size < 1:
            raise ValueError("omegas and probs must be 1-d and the same length")
        if not (np.isfinite(w).all() and np.isfinite(p).all()):
            raise ValueError("omegas and probs must be finite")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        object.__setattr__(self, "omegas", tuple(float(x) for x in w))
        object.__setattr__(self, "probs", tuple(float(x) for x in p))
        w, p = w[p > 0], p[p > 0]
        w2 = (w * w).reshape(1, -1)  # the squares integral takes at each a
        w.flags.writeable = p.flags.writeable = w2.flags.writeable = False
        vars(self).update(_atoms=(w, p), _omega2=w2, _support=(float(w.min()), float(w.max())))

    def atoms(self):
        return self._atoms

    def support(self):
        return self._support

    def quadrature(self, n: int):
        return self.atoms()

    def integral(self, a, cos2=True):
        # I is a (1, n) @ (n,) gemv: a 1-d dot is a ddot, whose sum may differ
        p = self._atoms[1]
        if cos2:
            return float((np.sqrt(np.maximum(a * a - self._omega2, 0.0)) @ p)[0])
        d = np.sqrt(np.maximum(a * a - self._omega2[0], 0.0))  # J is inf with mass at +-a
        with np.errstate(divide="ignore"):
            return float((p / d).sum())

    def expect(self, fn) -> float:
        w, p = self.atoms()
        return float(np.sum(p * fn(w)))


@dataclass(frozen=True)
class Dirac(Discrete):
    """All mass at a single frequency (identical oscillators): the one-atom
    Discrete law, with omega0 its only init field."""

    omega0: float = 0.0
    omegas: tuple = field(init=False, repr=False, compare=False)
    probs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vars(self).update(omegas=(self.omega0,), probs=(1.0,))
        super().__post_init__()


@dataclass(frozen=True)
class TruncatedGaussian(FrequencyDistribution):
    """Gaussian(mean, sigma) truncated to [mean - cut, mean + cut].

    Its core is mean +- 8 sigma, outside which g is below exp(-32) of its
    peak. On a cut wider than that, the stationary integrals split at the
    core's ends: an unsplit adaptive rule can straddle a narrow peak and
    never sample it (at sigma = 1e-6, cut = 0.3 it gives I = 0).
    """

    mean: float = 0.0
    sigma: float = 1.0
    cut: float = 2.0

    def __post_init__(self):
        # sigma^2 a normal float: -1/(2 sigma^2) is finite and divides by no subnormal
        if not (self.sigma > 0.0 and np.finfo(float).tiny <= self.sigma * self.sigma < math.inf):  # NaN fails too
            raise ValueError("sigma must be > 0 with sigma^2 a normal float, so in [1.49e-154, 1.34e154]")
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if not 0.0 < self.cut <= _HALF_MAX - abs(self.mean):
            raise ValueError("cut must be > 0 and |mean| + cut at most max float / 2")
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
        with np.errstate(over="ignore"):  # scale d d past max float: exp(-inf) = 0
            out = np.multiply(self._scale, d, out=np.empty(omega.shape))
            np.exp(np.multiply(out, d, out=out), out=out)
        out *= self._height
        np.copyto(out, 0.0, where=~((omega >= self._lo) & (omega <= self._hi)))
        return out

    def t_kernel(self, a, cos2=True):
        # integral's quad callback t -> cos(t)^2 g(a sin t) (g(a sin t) without cos2):
        # pdf's float path inlined, np.exp kept; a test pins the two bitwise
        lo, hi, mean, scale, height = self._lo, self._hi, self.mean, self._scale, self._height
        sin, cos, exp = math.sin, math.cos, np.exp

        def kernel(t):
            w = a * sin(t)
            if not lo <= w <= hi:
                return 0.0
            d = w - mean
            g = float(exp(scale * d * d)) * height
            return cos(t) ** 2 * g if cos2 else g

        return kernel

    def integral(self, a, cos2=True):
        # adaptive quad of t_kernel over the t-interval of the support, split at the t-images
        # of the core's ends inside it; np.arcsin, not math.asin: they differ in the last bit
        a = float(a)
        lo, hi = self._lo, self._hi
        ends = [lo, hi, *(c for c in self.core() if lo < c < hi)]
        t = np.arcsin([min(max(w / a, -1.0), 1.0) for w in ends]).tolist()
        v = quad(self.t_kernel(a, cos2), t[0], t[1], epsabs=1e-15, epsrel=1e-13, limit=200, points=t[2:] or None)[0]
        return a * a * v if cos2 else v

    def core(self):
        return (self.mean - 8.0 * self.sigma, self.mean + 8.0 * self.sigma)

    def support(self):
        return (self._lo, self._hi)

    def quadrature(self, n: int):
        nodes, width = self._cells(n)
        masses = self.pdf(nodes) * width
        total = masses.sum()
        if not total > 0.0:  # a Gaussian narrower than its cells; 0/0 would only warn
            raise ValueError("sigma is too narrow for the cells: every cell's mass underflows to 0")
        return nodes, masses / total

"""Finite-N mean-field oscillator dynamics: vector field, order parameters,
potential, and conserved quantities.

All functions here are pure; phases live on the real line (unwrapped) and
are reduced mod 2*pi only inside trig calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Below this coherence the mean-field angle is genuinely undefined and
# numerically ill-conditioned; it is reported as None.
R_MIN = 1e-8

# From this particle count on, field takes cos and sin from numpy's SIMD tan
# (AVX-512); below it, cos + sin cost less than the extra ufunc calls.
HALF_ANGLE_MIN = 512


class UndefinedPhaseError(ValueError):
    """An operation required the mean-field angle but R <= R_MIN."""


@dataclass
class OscillatorEnsemble:
    """State of N all-to-all coupled phase oscillators.

    phases : unwrapped angles (rad), one per oscillator
    freqs : natural frequencies (rad/time), same length
    coupling : K >= 0
    """

    phases: np.ndarray
    freqs: np.ndarray
    coupling: float = 1.0

    def __post_init__(self):
        self.phases = np.atleast_1d(np.asarray(self.phases, dtype=float)).copy()
        self.freqs = np.atleast_1d(np.asarray(self.freqs, dtype=float)).copy()
        self.coupling = float(self.coupling)
        if self.phases.ndim != 1 or self.phases.shape != self.freqs.shape:
            raise ValueError("phases and freqs must be 1-d arrays of equal length")
        if self.phases.size < 1:
            raise ValueError("need at least one oscillator")
        if not (np.all(np.isfinite(self.phases)) and np.all(np.isfinite(self.freqs))):
            raise ValueError("phases and freqs must be finite")
        if not np.isfinite(self.coupling) or self.coupling < 0.0:
            raise ValueError("coupling must be finite and >= 0")

    @property
    def n(self) -> int:
        return self.phases.size

    def with_phases(self, phases: np.ndarray) -> "OscillatorEnsemble":
        """Same frequencies and coupling, new phases."""
        return OscillatorEnsemble(phases, self.freqs, self.coupling)


@dataclass(frozen=True)
class OrderParameter:
    """Coherence r in [0,1] and mean-field angle phi in [-pi, pi); phi is None
    when r <= R_MIN (undefined at incoherence)."""

    r: float
    phi: Optional[float]

    @classmethod
    def from_dots(cls, x, y) -> "OrderParameter":
        """R exp(i phi) = x + i y, from the dots that field_into returns."""
        r = math.hypot(x, y)
        return cls(r, float(wrap_angle(math.atan2(y, x))) if r > R_MIN else None)


def wrap_angle(x):
    """Reduce angle(s) to [-pi, pi)."""
    return (np.asarray(x) + np.pi) % (2.0 * np.pi) - np.pi


def circle_distance(a, b):
    """Shortest angular distance |a - b| on the circle, in [0, pi]."""
    return np.abs(wrap_angle(np.asarray(a) - np.asarray(b)))


def order_parameter(ens: OscillatorEnsemble) -> OrderParameter:
    """Modulus and argument of (1/N) sum_j exp(i theta_j): equal weights."""
    return weighted_order_parameter(np.full(ens.n, 1.0 / ens.n), ens.phases)


def weighted_order_parameter(weights: np.ndarray, thetas: np.ndarray) -> OrderParameter:
    """Order parameter of a weighted phase measure sum_j w_j exp(i theta_j), from
    field_into's trig kernel: bitwise what a simulation records for the state."""
    u = trig_scale(np.size(thetas)) * np.asarray(thetas, dtype=float)
    c, s, scratch = np.empty((3, u.size))
    return OrderParameter.from_dots(*_trig_dots(u, np.asarray(weights, dtype=float), c, s, scratch)[1:])


def pairwise_rhs(ens: OscillatorEnsemble) -> np.ndarray:
    """O(N^2) form of the vector field: omega_i - (K/N) sum_j sin(theta_i - theta_j)."""
    diff = ens.phases[:, None] - ens.phases[None, :]
    return ens.freqs - (ens.coupling / ens.n) * np.sum(np.sin(diff), axis=1)


def trig_scale(n: int) -> float:
    """What field_into takes per radian of phase: 1/2 on the half-angle path."""
    return 0.5 if n >= HALF_ANGLE_MIN else 1.0


def field(thetas, omegas, weights, coupling, log_jac=True):
    """Velocity and log-Jacobian rate of weighted particles in their mean field.

    With z = sum_j w_j exp(i theta_j) = x + i y = R exp(i phi), the velocity
    is omega - K*R*sin(theta - phi) and the log-Jacobian rate is
    -K*R*cos(theta - phi). Angle addition gives R sin(theta - phi) =
    x sin(theta) - y cos(theta) (cos likewise), so one cos and one sin per
    particle and two dot products suffice and no angle phi is needed: the
    form is defined at every R. thetas and weights are arrays; a finite
    ensemble is weights = 1/N. With log_jac=False only the velocity is returned.
    """
    n = thetas.size
    v, c, s = np.empty(n), np.empty(n), np.empty(n)
    jac = np.empty(n) if log_jac else None
    field_into(thetas if n < HALF_ANGLE_MIN else 0.5 * thetas, omegas, weights, coupling, c, s, v, jac)
    return (v, jac) if log_jac else v


def _trig_dots(u, weights, c, s, scratch):
    """cos and sin of the phases u / trig_scale(u.size) into c and s/f, and the
    dots (f, x = sum w cos, y = sum w sin). From HALF_ANGLE_MIN particles on,
    f = 2 and t = tan(theta/2) gives cos = (1 - t^2) / (1 + t^2) and sin = 2t /
    (1 + t^2), within 2.2e-16 of np.cos/np.sin; below it, f = 1."""
    if u.size < HALF_ANGLE_MIN:
        np.cos(u, c)
        np.sin(u, s)
        return 1.0, c.dot(weights), s.dot(weights)
    np.tan(u, s)  # t
    np.divide(1.0, np.add(np.multiply(s, s, c), 1.0, scratch), scratch)  # t^2 in c, 1/(1 + t^2) in scratch
    np.multiply(np.subtract(1.0, c, c), scratch, c)  # cos
    np.multiply(s, scratch, s)  # sin/2
    return 2.0, c.dot(weights), 2.0 * s.dot(weights)


def field_into(u, omegas, weights, coupling, c, s, v, jac=None):
    """field at the phases u / trig_scale(u.size), written into v and, unless
    None, jac; c and s are scratch, so a stepper can reuse all four. Returns
    (v, x, y): the dots x + i y = R exp(i phi) are taken before the factor K,
    so one call gives a recorded row its velocity and its order parameter. The
    half-angle factor 2 rides on the scalars, exactly: bitwise the form above."""
    f, x, y = _trig_dots(u, weights, c, s, v)
    kx, ky = coupling * x, coupling * y
    if jac is not None:  # jac = -kx*cos - ky*sin, then v = omega + ky*cos - kx*sin
        np.subtract(np.multiply(c, -kx, jac), np.multiply(s, f * ky, v), jac)
    np.subtract(np.add(omegas, np.multiply(c, ky, c), v), np.multiply(s, f * kx, s), v)
    return v, x, y


def finite_n_rhs(ens: OscillatorEnsemble) -> np.ndarray:
    """Angular velocities theta_dot_i of the finite-N system: the mean-field
    velocity of the equal-weight measure; equals pairwise_rhs."""
    return field(ens.phases, ens.freqs, np.full(ens.n, 1.0 / ens.n), ens.coupling, False)


def potential_u(ens: OscillatorEnsemble) -> float:
    """Gradient potential U = (1/2N) sum_{h,j} cos(theta_h - theta_j) = (N/2) r^2.

    With K=1 and identical frequencies the dynamics is
    theta_dot_i = dU/dtheta_i (gradient ascent).
    """
    return ens.n * order_parameter(ens).r ** 2 / 2.0


def mean_phase(ens: OscillatorEnsemble) -> float:
    """(1/N) sum_i theta_i of the unwrapped phases.

    Constant along exact solutions with zero-mean frequencies; grows at the
    mean frequency otherwise.
    """
    return float(np.mean(ens.phases))


def zero_mean_frequencies(ens: OscillatorEnsemble) -> OscillatorEnsemble:
    """Shift natural frequencies to zero mean (co-rotating frame)."""
    return OscillatorEnsemble(ens.phases, ens.freqs - np.mean(ens.freqs), ens.coupling)


def r_dot_identical(ens: OscillatorEnsemble) -> float:
    """Exact dR/dt for identical oscillators: K * R * mean(sin^2(theta - phi)).

    Non-negative, zero only at stationary states. Raises UndefinedPhaseError
    when R <= R_MIN.
    """
    op = order_parameter(ens)
    if op.phi is None:
        raise UndefinedPhaseError("R <= R_MIN: mean-field angle undefined")
    s = np.sin(ens.phases - op.phi)
    return float(ens.coupling * op.r * np.mean(s * s))


def r_phi_dot_nonidentical(meas, coupling: float) -> tuple[float, float]:
    """(dR/dt, R*dphi/dt) for a weighted phase measure with frequencies.

    dR/dt   = K*R * int sin^2(eta-phi) rho - int omega sin(eta-phi) f
    R*dphi/dt = -K*R * int sin cos rho + int omega cos(eta-phi) f

    Integrals are weighted particle sums over meas (needs .weights, .thetas,
    .omegas). Raises UndefinedPhaseError when R <= R_MIN.
    """
    w = np.asarray(meas.weights)
    thetas = np.asarray(meas.thetas)
    omegas = np.asarray(meas.omegas)
    op = weighted_order_parameter(w, thetas)
    if op.phi is None:
        raise UndefinedPhaseError("R <= R_MIN: mean-field angle undefined")
    s = np.sin(thetas - op.phi)
    c = np.cos(thetas - op.phi)
    r_dot = coupling * op.r * float(np.sum(w * s * s)) - float(np.sum(w * omegas * s))
    r_phi_dot = -coupling * op.r * float(np.sum(w * s * c)) + float(np.sum(w * omegas * c))
    return r_dot, r_phi_dot

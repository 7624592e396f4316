"""Mean-field kinetic model solved along characteristics.

The measure is Lagrangian: weighted particles with frozen weights, each
carrying its current characteristic (unwrapped), its initial angle, its
natural frequency, and the log-Jacobian ln dTheta/dtheta for entropy
accounting. The weak form of the transport equation is exactly this
pushforward, so no grid density is ever built.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from .core import OrderParameter, OscillatorEnsemble, circle_distance, weighted_order_parameter
from .freqdist import FrequencyDistribution
from .integrate import NonFiniteStateError, SimConfig, Stepper, _trusted, drive

_WEIGHT_TOL = 1e-12


@dataclass
class PhaseMeasure:
    """Weighted-particle measure on the torus x frequency line.

    weights sum to 1 and never change (mass transport along
    characteristics); log_jacs are zero at time 0.
    """

    weights: np.ndarray
    thetas: np.ndarray
    thetas0: np.ndarray
    omegas: np.ndarray
    log_jacs: np.ndarray
    coupling: float = 1.0
    time: float = 0.0
    has_atoms: bool = False

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.thetas = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        self.thetas0 = np.atleast_1d(np.asarray(self.thetas0, dtype=float))
        self.omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        self.log_jacs = np.atleast_1d(np.asarray(self.log_jacs, dtype=float))
        n = self.weights.size
        for arr in (self.thetas, self.thetas0, self.omegas, self.log_jacs):
            if arr.shape != (n,):
                raise ValueError("all particle arrays must share one length")
        if not np.all(self.weights > 0):  # NaN fails too
            raise ValueError("weights must be positive")
        if abs(self.weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        if self.time == 0.0 and np.any(self.log_jacs != 0.0):
            raise ValueError("log_jacs must be zero at time 0")
        if self.coupling < 0 or not np.isfinite(self.coupling):
            raise ValueError("coupling must be finite and >= 0")

    @property
    def n_particles(self) -> int:
        return self.weights.size

    @classmethod
    def initial(cls, weights, thetas, omegas, coupling=1.0, has_atoms=False) -> "PhaseMeasure":
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return cls(
            weights=weights,
            thetas=thetas.copy(),
            thetas0=thetas.copy(),
            omegas=omegas,
            log_jacs=np.zeros_like(thetas),
            coupling=coupling,
            time=0.0,
            has_atoms=has_atoms,
        )

    @classmethod
    def from_ensemble(cls, ens: OscillatorEnsemble) -> "PhaseMeasure":
        """Equal-weight atomic measure matching a finite ensemble."""
        w = np.full(ens.n, 1.0 / ens.n)
        return cls.initial(w, ens.phases, ens.freqs, ens.coupling, has_atoms=True)


# ---------------------------------------------------------------------------
# Initial-datum specifications


@dataclass(frozen=True)
class AtomList:
    """Explicit atoms: (weight, theta, omega) triples."""

    weights: tuple
    thetas: tuple
    omegas: tuple


@dataclass(frozen=True)
class UniformArc:
    """Uniform phase density on [center - halfwidth, center + halfwidth]."""

    center: float = 0.0
    halfwidth: float = np.pi
    omega: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.halfwidth <= np.pi:
            raise ValueError("halfwidth must lie in (0, pi]")


@dataclass(frozen=True)
class TruncatedGaussianArc:
    """Gaussian phase density truncated to an arc around center."""

    center: float = 0.0
    sigma: float = 0.5
    halfwidth: float = np.pi
    omega: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.halfwidth <= np.pi:
            raise ValueError("halfwidth must lie in (0, pi]")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")


@dataclass(frozen=True)
class ProductSpec:
    """Phase spec tensor frequency law; n_freq frequency nodes per phase node."""

    phase: Union[UniformArc, TruncatedGaussianArc]
    freqs: FrequencyDistribution
    n_freq: int = 64

    def __post_init__(self):
        if self.n_freq < 1:
            raise ValueError("n_freq must be >= 1")


DensitySpec = Union[AtomList, UniformArc, TruncatedGaussianArc, ProductSpec]


def _phase_nodes(spec, m: int):
    """Midpoint nodes and cell masses for an absolutely continuous phase spec."""
    lo = spec.center - spec.halfwidth
    hi = spec.center + spec.halfwidth
    edges = np.linspace(lo, hi, m + 1)
    nodes = 0.5 * (edges[:-1] + edges[1:])
    if isinstance(spec, UniformArc):
        masses = np.full(m, 1.0 / m)
    else:
        z = (nodes - spec.center) / spec.sigma
        masses = np.exp(-0.5 * z * z) * (edges[1] - edges[0])
        masses = masses / masses.sum()
    return nodes, masses


def discretize(spec: DensitySpec, m: int = 1024, coupling: float = 1.0) -> PhaseMeasure:
    """Turn a density spec into a weighted-particle measure.

    Atoms pass through exactly; absolutely continuous parts become m
    midpoint-rule nodes with weights equal to the cell mass; product specs
    use a tensor grid.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if isinstance(spec, AtomList):
        w = np.asarray(spec.weights, dtype=float)
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("atom weights must sum to 1 within 1e-12")
        return PhaseMeasure.initial(w, spec.thetas, spec.omegas, coupling, has_atoms=True)
    if isinstance(spec, ProductSpec):
        nodes, masses = _phase_nodes(spec.phase, m)
        f_nodes, f_weights = spec.freqs.quadrature(spec.n_freq)
        thetas = np.repeat(nodes, f_nodes.size)
        omegas = np.tile(f_nodes, nodes.size)
        weights = np.repeat(masses, f_nodes.size) * np.tile(f_weights, nodes.size)
        weights = weights / weights.sum()
        return PhaseMeasure.initial(weights, thetas, omegas, coupling)
    nodes, masses = _phase_nodes(spec, m)
    omegas = np.full(m, spec.omega)
    return PhaseMeasure.initial(masses / masses.sum(), nodes, omegas, coupling)


# ---------------------------------------------------------------------------
# Transport


def kinetic_step(meas: PhaseMeasure, dt: float) -> PhaseMeasure:
    """One RK4 step of the coupled characteristic/log-Jacobian system.

    Weights are untouched.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    y = Stepper(meas.omegas, meas.weights, meas.coupling, True)(np.stack([meas.thetas, meas.log_jacs]), dt)
    if not np.isfinite(y).all():
        raise NonFiniteStateError(meas.time + dt)
    return _trusted(meas, thetas=y[0], log_jacs=y[1], time=meas.time + dt)


@dataclass
class KineticTrajectory:
    times: np.ndarray
    r_series: np.ndarray
    phi_series: List[Optional[float]]
    h_series: np.ndarray
    entropy_series: np.ndarray
    mean_phase_series: np.ndarray
    final: PhaseMeasure
    stopped_on: str = "t_max"


def kinetic_simulate(meas: PhaseMeasure, cfg: SimConfig) -> KineticTrajectory:
    """Integrate the kinetic measure to t_max or until the velocity field
    is stationary, recording the scalar diagnostics."""
    rows = []
    step = Stepper(meas.omegas, meas.weights, meas.coupling, log_jac=True)

    def observe(t, y):
        v, x, z = step.observe(y)
        op = OrderParameter.from_dots(x, z)
        w = meas.weights
        rows.append((t, op.r, op.phi, _h(meas, y[0], op.r), -float(np.sum(w * y[1])), float(np.sum(w * y[0]))))
        return np.max(np.abs(v))

    y, stopped_on = drive(step, np.stack([meas.thetas, meas.log_jacs]), cfg, observe, meas.time)
    times, r, phi, h, s, mp = zip(*rows)
    return KineticTrajectory(
        times=np.asarray(times),
        r_series=np.asarray(r),
        phi_series=list(phi),
        h_series=np.asarray(h),
        entropy_series=np.asarray(s),
        mean_phase_series=np.asarray(mp),
        final=_trusted(meas, thetas=y[0], log_jacs=y[1], time=times[-1]),
        stopped_on=stopped_on,
    )


# ---------------------------------------------------------------------------
# Functionals


def observable(meas: PhaseMeasure, h: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of a 2pi-periodic test function against the measure."""
    return float(np.sum(meas.weights * h(meas.thetas)))


def entropy_change(meas: PhaseMeasure) -> float:
    """S(t) - S(0) = -sum w * log_jac.

    Along characteristics f(t, Theta) * dTheta/dtheta = f0(theta), so the
    differential entropy change is exactly minus the weighted log-Jacobian;
    its time derivative is +K*R^2. Only meaningful for absolutely
    continuous initial data; warns when the measure carries atoms.
    """
    if meas.has_atoms:
        warnings.warn("entropy_change on an atomic measure is not meaningful", stacklevel=2)
    return -float(np.sum(meas.weights * meas.log_jacs))


def h_functional(meas: PhaseMeasure) -> float:
    """sum w * theta * omega + K * R^2 / 2, non-decreasing along solutions."""
    return _h(meas, meas.thetas, weighted_order_parameter(meas.weights, meas.thetas).r)


def _h(meas: PhaseMeasure, thetas: np.ndarray, r: float) -> float:
    """h_functional of meas at the phases thetas, given their coherence r."""
    return float(np.sum(meas.weights * thetas * meas.omegas)) + meas.coupling * r**2 / 2.0


def fourier_moment(meas: PhaseMeasure, k: int) -> complex:
    """sum w * exp(i theta) * omega^k; k=0 is the complex order parameter."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return complex(np.sum(meas.weights * np.exp(1j * meas.thetas) * meas.omegas**k))


def characteristic_targets(
    meas: PhaseMeasure,
    coupling: float,
    r_star: float,
    phi_star: float,
    tol: float = 1e-2,
) -> np.ndarray:
    """Tag each particle by the locked branch it sits on.

    "plus"/"minus" for particles within tol (mod 2pi) of
    theta+(omega) = phi* + arcsin(omega/(K R*)) or
    theta-(omega) = pi + phi* - arcsin(omega/(K R*)); "drifting" when
    |omega| > K R* (no locked branch exists); "unresolved" otherwise.
    """
    labels = np.full(meas.n_particles, "unresolved", dtype=object)
    kr = coupling * r_star
    drifting = np.abs(meas.omegas) > kr
    labels[drifting] = "drifting"
    locked = ~drifting
    if np.any(locked):
        a = np.arcsin(np.clip(meas.omegas[locked] / kr, -1.0, 1.0))
        theta_p = phi_star + a
        theta_m = np.pi + phi_star - a
        th = meas.thetas[locked]
        sub = labels[locked]
        sub[circle_distance(th, theta_m) < tol] = "minus"
        sub[circle_distance(th, theta_p) < tol] = "plus"
        labels[locked] = sub
    return labels

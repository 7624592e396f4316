"""Mean-field kinetic model solved along characteristics.

The measure is Lagrangian: weighted particles with frozen weights, each
carrying its current characteristic (unwrapped), its natural frequency,
and the log-Jacobian ln dTheta/dtheta for entropy accounting; the thetas
of the initial measure label the particles. The weak form of the transport
equation is exactly this pushforward, so no grid density is ever built.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import OscillatorEnsemble, circle_distance, weighted_order_parameter
from .freqdist import Dirac, FrequencyDistribution, TruncatedGaussian, Uniform
from .integrate import NonFiniteStateError, SimConfig, Trajectory, _run, _step, _trusted


@dataclass
class PhaseMeasure:
    """Weighted-particle measure on the torus x frequency line.

    weights sum to 1 and never change (mass transport along
    characteristics); log_jacs are zero at time 0.
    """

    weights: np.ndarray
    thetas: np.ndarray
    omegas: np.ndarray
    log_jacs: np.ndarray
    coupling: float = 1.0
    time: float = 0.0
    has_atoms: bool = False

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.thetas = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        self.omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        self.log_jacs = np.atleast_1d(np.asarray(self.log_jacs, dtype=float))
        n = self.weights.size
        for arr in (self.thetas, self.omegas, self.log_jacs):
            if arr.shape != (n,):
                raise ValueError("all particle arrays must share one length")
        if not np.all(self.weights > 0):  # NaN fails too
            raise ValueError("weights must be positive")
        if not all(np.isfinite(a).all() for a in (self.thetas, self.omegas, self.log_jacs)):
            raise ValueError("thetas, omegas and log_jacs must be finite")
        if not np.isfinite(self.time):
            raise ValueError("time must be finite")
        if abs(self.weights.sum() - 1.0) > 1e-12:
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
class ProductSpec:
    """Phase law tensor frequency law; n_freq frequency nodes per phase node.

    The phase law is a Uniform(center, halfwidth) or a TruncatedGaussian(mean,
    sigma, cut) on an arc of the circle: its halfwidth or cut is at most pi.
    """

    phase: Union[Uniform, TruncatedGaussian]
    freqs: FrequencyDistribution
    n_freq: int = 64

    def __post_init__(self):
        if not isinstance(self.phase, (Uniform, TruncatedGaussian)):
            raise TypeError("the phase law must be a Uniform or a TruncatedGaussian")
        # the field, not the support: at pi the rounded ends can lie more than 2 pi apart
        if not (self.phase.halfwidth if isinstance(self.phase, Uniform) else self.phase.cut) <= np.pi:
            raise ValueError("the phase law's half-width must be at most pi")
        if self.n_freq < 1:
            raise ValueError("n_freq must be >= 1")


DensitySpec = Union[AtomList, Uniform, TruncatedGaussian, ProductSpec]


def discretize(spec: DensitySpec, m: int = 1024, coupling: float = 1.0) -> PhaseMeasure:
    """Turn a density spec into a weighted-particle measure.

    Atoms pass through exactly, and an atom of weight 0 is left out;
    product specs use the tensor grid of the two laws' quadratures (m
    midpoint cells of the phase arc), and a phase law alone is its product
    with Dirac(). A node whose mass underflows to 0 (the far tail of a
    narrow Gaussian) carries nothing and is left out too.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if isinstance(spec, AtomList):
        atoms = np.array([np.atleast_1d(a) for a in (spec.weights, spec.thetas, spec.omegas)], dtype=float)
        return PhaseMeasure.initial(*atoms[:, atoms[0] != 0.0], coupling, has_atoms=True)
    if not isinstance(spec, ProductSpec):
        spec = ProductSpec(spec, Dirac())
    nodes, masses = spec.phase.quadrature(m)
    f_nodes, f_weights = spec.freqs.quadrature(spec.n_freq)
    thetas = np.repeat(nodes, f_nodes.size)
    omegas = np.tile(f_nodes, nodes.size)
    product = np.repeat(masses, f_nodes.size) * np.tile(f_weights, nodes.size)
    keep = product > 0.0
    return PhaseMeasure.initial(product[keep] / product[keep].sum(), thetas[keep], omegas[keep], coupling)


# ---------------------------------------------------------------------------
# Transport


def kinetic_step(meas: PhaseMeasure, dt: float) -> PhaseMeasure:
    """One RK4 step of the coupled characteristic/log-Jacobian system.

    Weights are untouched.
    """
    if not dt > 0:  # NaN fails too
        raise ValueError("dt must be > 0")
    y = _step(np.stack([meas.thetas, meas.log_jacs]), meas.omegas, meas.weights, meas.coupling, dt)
    if y is None:
        raise NonFiniteStateError(meas.time + dt)
    return _trusted(meas, thetas=y[0], log_jacs=y[1], time=meas.time + dt)


def kinetic_simulate(meas: PhaseMeasure, cfg: SimConfig) -> Trajectory:
    """Integrate the kinetic measure to t_max or until the velocity field
    is stationary, recording the scalar diagnostics."""
    return _run(np.stack([meas.thetas, meas.log_jacs]), meas.omegas, meas.weights, meas.coupling, cfg,
                lambda y, t: _trusted(meas, thetas=y[0], log_jacs=y[1], time=t), meas.time)


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
    # row 1 of the state's 2-row dot with the weights: the form a run records
    return -float(np.stack([meas.thetas, meas.log_jacs]).dot(meas.weights)[1])


def h_functional(meas: PhaseMeasure) -> float:
    """sum w * theta * omega + K * R^2 / 2, non-decreasing along solutions;
    bitwise the form a run records."""
    r = weighted_order_parameter(meas.weights, meas.thetas).r
    return float(meas.thetas.dot(meas.weights * meas.omegas)) + meas.coupling * r**2 / 2.0


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
    kr = coupling * r_star
    if not kr > 0:  # NaN fails too; at 0 every omega = 0 particle would be 0/0
        raise ValueError("coupling * r_star must be > 0")
    labels = np.full(meas.n_particles, "unresolved", dtype=object)
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

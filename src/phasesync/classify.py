"""Classification of states against the stationary taxonomy: incoherent,
two-cluster (majority/antipode), or not stationary; plus the reduced
three-oscillator threshold dynamics.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    OscillatorEnsemble,
    circle_distance,
    weighted_order_parameter,
    wrap_angle,
)
from .integrate import SimConfig, simulate

CLASS_R_TOL = 1e-6  # below this coherence a state counts as incoherent
ANGLE_TOL = 1e-3  # rad, default cluster half-width
MASS_TOL = 1e-3  # default unaccounted-mass allowance for measures


@dataclass(frozen=True)
class StationaryClass:
    """Tagged classification outcome.

    kind is one of "incoherent", "clustered", "not_stationary".
    For clustered finite ensembles, n_at_phi oscillators sit at phi_star and
    k = N - n_at_phi at the antipode (n_at_phi > k); c1, c2 are the
    corresponding mass fractions, also filled for measures.
    """

    kind: str
    phi_star: Optional[float] = None
    n_at_phi: Optional[int] = None
    k: Optional[int] = None
    c1: Optional[float] = None
    c2: Optional[float] = None


INCOHERENT = StationaryClass(kind="incoherent")
NOT_STATIONARY = StationaryClass(kind="not_stationary")


def classify_finite(ens: OscillatorEnsemble, angle_tol: float = ANGLE_TOL) -> StationaryClass:
    """Classify a finite ensemble: classify_measure of its equal-weight
    measure with mass_tol = 1/(2N), so every phase must lie within angle_tol
    (mod 2pi) of phi_star or its antipode, the majority at phi_star; a
    clustered class also counts the oscillators at each."""
    return _classify(np.full(ens.n, 1.0 / ens.n), ens.phases, angle_tol, 0.5 / ens.n, counts=True)


def classify_measure(meas, angle_tol: float = ANGLE_TOL, mass_tol: float = MASS_TOL) -> StationaryClass:
    """Classify a weighted phase measure (needs .weights and .thetas).

    Clustered requires the mass within angle_tol of phi_star (c1) and of
    its antipode (c2) to cover all but mass_tol of the total, with
    strictly c1 > c2; a tie is NotStationary. phi_star is taken from the
    order parameter. Needs 0 < angle_tol < pi/4, so the two arcs are
    disjoint, and 0 < mass_tol < 1.
    """
    return _classify(np.asarray(meas.weights), np.asarray(meas.thetas), angle_tol, mass_tol)


def check_tolerances(angle_tol: float, mass_tol: float) -> None:
    """Raise ValueError unless 0 < angle_tol < pi/4 and 0 < mass_tol < 1."""
    if not 0.0 < angle_tol < np.pi / 4:  # NaN fails too
        raise ValueError("angle_tol must lie in (0, pi/4)")
    if not 0.0 < mass_tol < 1.0:
        raise ValueError("mass_tol must lie in (0, 1)")


def _classify(w, thetas, angle_tol, mass_tol, counts=False) -> StationaryClass:
    check_tolerances(angle_tol, mass_tol)
    op = weighted_order_parameter(w, thetas)
    if op.r <= CLASS_R_TOL:
        return INCOHERENT
    main = circle_distance(thetas, op.phi) < angle_tol
    anti = circle_distance(thetas, op.phi + np.pi) < angle_tol
    c1, c2 = float(np.sum(w[main])), float(np.sum(w[anti]))
    if c1 + c2 <= 1.0 - mass_tol or c1 <= c2:
        return NOT_STATIONARY
    n_at_phi, k = (int(np.sum(main)), int(np.sum(anti))) if counts else (None, None)
    return StationaryClass("clustered", float(wrap_angle(op.phi)), n_at_phi, k, c1, c2)


def three_oscillator_rate(delta: float) -> float:
    """Reduced rate for the symmetric 3-oscillator family
    (delta, -delta, pi): d(delta)/dt = (2/3) sin(delta) (1/2 - cos(delta)).
    """
    return (2.0 / 3.0) * np.sin(delta) * (0.5 - np.cos(delta))


def three_oscillator_limit(delta0: float, t_max: float = 200.0) -> float:
    """Run the family (delta0, -delta0, pi) with K = 1, identical
    frequencies, dt = 0.01 and stationarity_tol = 1e-9, to t_max or to
    stationarity, and return the reached delta, half the gap of the final
    first two phases.

    Limits: 0 for delta0 in [0, pi/3), pi/3 at the threshold, pi for
    delta0 in (pi/3, pi]. Warns if the horizon is too short to be
    stationary.
    """
    if not 0.0 < delta0 <= np.pi:
        raise ValueError("delta0 must lie in (0, pi]")
    ens = OscillatorEnsemble([delta0, -delta0, np.pi], np.zeros(3), 1.0)
    # a row every 10 steps: the stop comes at most 9 steps late, and the run is 2x faster
    traj = simulate(ens, SimConfig(dt=0.01, t_max=t_max, record_every=10, stationarity_tol=1e-9))
    if traj.stopped_on == "t_max":
        warnings.warn(f"horizon t_max={t_max:g} too short: not stationary at the end", stacklevel=2)
    phases = traj.final.phases
    return float(phases[0] - phases[1]) / 2.0

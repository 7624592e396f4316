"""Fixed-step RK4 integration of the finite-N system with diagnostic
recording and stationarity detection.

Deterministic: identical (ensemble, config) inputs give bitwise-identical
trajectories on a given platform.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import rng
from .core import (
    OscillatorEnsemble,
    finite_n_rhs,
    mean_phase,
    order_parameter,
    potential_u,
)


class NonFiniteStateError(RuntimeError):
    """The integrated state became non-finite."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t={time:g}")
        self.time = time


@dataclass
class SimConfig:
    dt: float = 0.01
    t_max: float = 100.0
    record_every: int = 1
    stationarity_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not (self.dt > 0 and self.t_max > 0 and self.dt <= self.t_max):
            raise ValueError("need 0 < dt <= t_max")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if self.stationarity_tol <= 0:
            raise ValueError("stationarity_tol must be > 0")


@dataclass
class Trajectory:
    times: np.ndarray
    states: List[OscillatorEnsemble]
    r_series: np.ndarray
    phi_series: List[Optional[float]]
    u_series: np.ndarray
    mean_phase_series: np.ndarray
    stopped_on: str = "t_max"  # "t_max" or "stationary"

    @property
    def final(self) -> OscillatorEnsemble:
        return self.states[-1]


def _rhs_phases(phases: np.ndarray, ens: OscillatorEnsemble) -> np.ndarray:
    return finite_n_rhs(ens.with_phases(phases))


def step_rk4(ens: OscillatorEnsemble, dt: float) -> OscillatorEnsemble:
    """One classical RK4 step; frequencies and coupling unchanged."""
    y = ens.phases
    k1 = _rhs_phases(y, ens)
    k2 = _rhs_phases(y + 0.5 * dt * k1, ens)
    k3 = _rhs_phases(y + 0.5 * dt * k2, ens)
    k4 = _rhs_phases(y + dt * k3, ens)
    return ens.with_phases(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def detect_stationarity(ens: OscillatorEnsemble, tol: float = 1e-9) -> bool:
    """True iff max_i |theta_dot_i| < tol."""
    return bool(np.max(np.abs(finite_n_rhs(ens))) < tol)


def simulate(ens: OscillatorEnsemble, cfg: SimConfig) -> Trajectory:
    """Integrate to t_max, or until stationarity, recording diagnostics.

    Diagnostics (R, phi, U, mean phase) are recorded every record_every
    steps, always including the initial and final states.
    """
    n_steps = int(round(cfg.t_max / cfg.dt))
    times = [0.0]
    states = [ens]
    r_series = []
    phi_series: List[Optional[float]] = []
    u_series = []
    mp_series = []

    def record(e: OscillatorEnsemble):
        op = order_parameter(e)
        r_series.append(op.r)
        phi_series.append(op.phi)
        u_series.append(potential_u(e))
        mp_series.append(mean_phase(e))

    record(ens)
    stopped_on = "t_max"
    cur = ens
    for k in range(1, n_steps + 1):
        cur = step_rk4(cur, cfg.dt)
        t = k * cfg.dt
        if k % cfg.record_every == 0 or k == n_steps:
            if not np.all(np.isfinite(cur.phases)):
                raise NonFiniteStateError(t)
            times.append(t)
            states.append(cur)
            record(cur)
            if detect_stationarity(cur, cfg.stationarity_tol):
                stopped_on = "stationary"
                break

    return Trajectory(
        times=np.asarray(times),
        states=states,
        r_series=np.asarray(r_series),
        phi_series=phi_series,
        u_series=np.asarray(u_series),
        mean_phase_series=np.asarray(mp_series),
        stopped_on=stopped_on,
    )


def seeded_ensemble(
    n: int,
    coupling: float = 1.0,
    seed: int = 0,
    freq_halfwidth: float = 0.0,
    zero_mean: bool = False,
) -> OscillatorEnsemble:
    """Reproducible random ensemble from a splitmix64 seed.

    Phases uniform on [-pi, pi); frequencies uniform on
    [-freq_halfwidth, freq_halfwidth), optionally shifted to zero mean.
    """
    phases = rng.uniform(seed, n, -np.pi, np.pi)
    if freq_halfwidth > 0:
        freqs = rng.uniform(seed + 1, n, -freq_halfwidth, freq_halfwidth)
        if zero_mean:
            freqs = freqs - np.mean(freqs)
    else:
        freqs = np.zeros(n)
    return OscillatorEnsemble(phases, freqs, coupling)

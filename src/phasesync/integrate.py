"""Fixed-step RK4 integration with diagnostic recording and stationarity
detection: the one stepper and the one driver loop shared by the finite-N
and the kinetic simulators, and the finite-N wrappers around them.

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
    field,
    finite_n_rhs,
    mean_phase,
    order_parameter,
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

    def __post_init__(self):
        if not (0 < self.dt <= self.t_max < np.inf):
            raise ValueError("need 0 < dt <= t_max, both finite")
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


def rk4_step(rate, y, dt):
    """One classical RK4 step of y' = rate(y); y is an array or a scalar."""
    h = 0.5 * dt
    k1 = rate(y)
    k2 = rate(y + h * k1)
    k3 = rate(y + h * k2)
    k4 = rate(y + dt * k3)
    return rk4_combine(y, dt, k1, k2, k3, k4)


def rk4_combine(y, dt, k1, k2, k3, k4):
    """y advanced by dt with the classical RK4 weights on the stage rates."""
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def drive(step, velocity, y, cfg: SimConfig, record, time: float = 0.0):
    """The driver loop: steps y = step(y, dt) from t = time to t_max.

    record(t, y) is called at the start and every record_every steps, always
    including the last, with t = time + k*dt. A non-finite y raises
    NonFiniteStateError at the step that produced it. At each recorded row
    the run stops early once max|velocity(y)| < stationarity_tol.
    Returns (final y, "stationary" or "t_max").
    """
    n_steps = int(round(cfg.t_max / cfg.dt))
    record(time, y)
    for k in range(1, n_steps + 1):
        y = step(y, cfg.dt)
        t = time + k * cfg.dt
        if not np.isfinite(y).all():
            raise NonFiniteStateError(t)
        if k % cfg.record_every == 0 or k == n_steps:
            record(t, y)
            if np.max(np.abs(velocity(y))) < cfg.stationarity_tol:
                return y, "stationary"
    return y, "t_max"


def _phase_rate(ens: OscillatorEnsemble):
    """Phase velocity of the ensemble's equal-weight measure, as a function
    of the phases alone."""
    w, om, k = np.full(ens.n, 1.0 / ens.n), ens.freqs, ens.coupling
    return lambda phases: field(phases, om, w, k, False)


def step_rk4(ens: OscillatorEnsemble, dt: float) -> OscillatorEnsemble:
    """One classical RK4 step (dt may be negative); frequencies and coupling
    unchanged."""
    return ens.with_phases(rk4_step(_phase_rate(ens), ens.phases, dt))


def detect_stationarity(ens: OscillatorEnsemble, tol: float = 1e-9) -> bool:
    """True iff max_i |theta_dot_i| < tol."""
    return bool(np.max(np.abs(finite_n_rhs(ens))) < tol)


def simulate(ens: OscillatorEnsemble, cfg: SimConfig) -> Trajectory:
    """Integrate to t_max, or until stationarity, recording diagnostics.

    Diagnostics (R, phi, U, mean phase) are recorded every record_every
    steps, always including the initial and final states.
    """
    rows = []

    def record(t, phases):
        e = ens.with_phases(phases)
        op = order_parameter(e)
        # U = N R^2/2 from this row's R; potential_u would recompute R
        rows.append((t, e, op.r, op.phi, e.n * op.r**2 / 2.0, mean_phase(e)))

    rate = _phase_rate(ens)
    _, stopped_on = drive(lambda y, dt: rk4_step(rate, y, dt), rate, ens.phases, cfg, record)
    times, states, r, phi, u, mp = zip(*rows)
    return Trajectory(
        times=np.asarray(times),
        states=list(states),
        r_series=np.asarray(r),
        phi_series=list(phi),
        u_series=np.asarray(u),
        mean_phase_series=np.asarray(mp),
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

    Phases uniform on [-pi, pi) from the stream of seed; frequencies uniform
    on [-freq_halfwidth, freq_halfwidth), optionally shifted to zero mean,
    from the stream seeded by the first output of that stream, so they are
    not the phases of seed + 1.
    """
    phases = rng.uniform(seed, n, -np.pi, np.pi)
    if freq_halfwidth > 0:
        freqs = rng.uniform(int(rng.splitmix64(seed, 1)[0]), n, -freq_halfwidth, freq_halfwidth)
        if zero_mean:
            freqs = freqs - np.mean(freqs)
    else:
        freqs = np.zeros(n)
    return OscillatorEnsemble(phases, freqs, coupling)

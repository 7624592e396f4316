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
from .core import OrderParameter, OscillatorEnsemble, field_into, finite_n_rhs, mean_phase, trig_scale


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
        if not 0 < self.stationarity_tol < np.inf:  # NaN fails too
            raise ValueError("stationarity_tol must be finite and > 0")


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
    return y + rk4_increment(k1, k2 + k3, k4, dt)


def rk4_increment(k1, k23, k4, dt):
    """The RK4 increment dt/6 (k1 + 2 (k2 + k3) + k4), given k23 = k2 + k3;
    computed in place in k23 when that is an array."""
    k23 *= 2.0
    k23 += k1
    k23 += k4
    k23 *= dt / 6.0
    return k23


class Stepper:
    """The RK4 step of weighted particles in their mean field, recomputed at
    every stage (4th order for the nonlocal system). Built once per run, it
    owns its stage and state buffers, and every ufunc writes into them. y is
    (rows, n): the phases, and with log_jac their log-Jacobians, whose rates
    come from the same field calls. A step returns the state buffer y is not,
    overwritten two steps later. Stage inputs are field_into's a*y + (a*h)*k,
    a = trig_scale(n), equal to a*(y + h*k) as scaling by 1/2 is exact."""

    def __init__(self, omegas, weights, coupling, log_jac=False):
        n, rows = omegas.size, 2 if log_jac else 1
        self._a = trig_scale(n)
        self._states = [np.empty((rows, n)), np.empty((rows, n))]
        self._k = tuple(np.empty((3, rows, n)))
        self._u, self._ay, c, s = np.empty((4, n))
        self._args = [(omegas, weights, coupling, c, s, k[0], k[1] if log_jac else None) for k in self._k]

    def __call__(self, y, dt):
        (k1, k2, k3), (f1, f2, f3), u, a, h = self._k, self._args, self._u, self._a, 0.5 * dt
        ay = y[0] if a == 1.0 else np.multiply(y[0], a, self._ay)
        np.add(ay, np.multiply(field_into(ay, *f1)[0], a * h, u), u)
        np.add(ay, np.multiply(field_into(u, *f2)[0], a * h, u), u)
        np.add(ay, np.multiply(field_into(u, *f3)[0], a * dt, u), u)
        np.add(k2, k3, k2)
        field_into(u, *f3)
        return np.add(y, rk4_increment(k1, k2, k3, dt), self._states[y is self._states[0]])

    def observe(self, y):
        """field_into's (v, x, y) at the state y, velocity only, into k1's v."""
        ay = y[0] if self._a == 1.0 else np.multiply(y[0], self._a, self._ay)
        return field_into(ay, *self._args[0][:-1])


def drive(step, y, cfg: SimConfig, observe, time: float = 0.0):
    """The driver loop: steps y = step(y, dt) from t = time to t_max.

    observe(t, y) records a row, at the cost of one Stepper.observe plus its
    Python, and returns the stop residual max|v| of the velocity at y. It is
    called at the start and every record_every steps, always including the
    last, with t = time + k*dt; after the start the run stops once a residual is
    below stationarity_tol. A non-finite y raises NonFiniteStateError at the
    step that produced it. Returns (final y, "stationary" or "t_max").
    """
    n_steps = int(round(cfg.t_max / cfg.dt))
    observe(time, y)
    for k in range(1, n_steps + 1):
        y = step(y, cfg.dt)
        t = time + k * cfg.dt
        if not np.isfinite(y).all():
            raise NonFiniteStateError(t)
        if (k % cfg.record_every == 0 or k == n_steps) and observe(t, y) < cfg.stationarity_tol:
            return y, "stationary"
    return y, "t_max"


def _trusted(obj, **fields):
    """obj with some fields replaced, built without __post_init__: the others
    were checked when obj was built, and the new ones are a step's finite
    float state."""
    moved = object.__new__(type(obj))
    vars(moved).update(vars(obj), **fields)
    return moved


def step_rk4(ens: OscillatorEnsemble, dt: float) -> OscillatorEnsemble:
    """One classical RK4 step (dt may be negative); frequencies and coupling
    unchanged."""
    y = Stepper(ens.freqs, np.full(ens.n, 1.0 / ens.n), ens.coupling)(ens.phases[None], dt)
    if not np.isfinite(y).all():
        raise ValueError("the step made the phases non-finite")
    return _trusted(ens, phases=y[0], freqs=ens.freqs.copy())


def detect_stationarity(ens: OscillatorEnsemble, tol: float = 1e-9) -> bool:
    """True iff max_i |theta_dot_i| < tol."""
    return bool(np.max(np.abs(finite_n_rhs(ens))) < tol)


def simulate(ens: OscillatorEnsemble, cfg: SimConfig) -> Trajectory:
    """Integrate to t_max, or until stationarity, recording diagnostics.

    Diagnostics (R, phi, U, mean phase) are recorded every record_every
    steps, always including the initial and final states.
    """
    rows = []
    freqs, w = ens.freqs.copy(), np.full(ens.n, 1.0 / ens.n)
    freqs.flags.writeable = False  # one copy, shared by every row
    step = Stepper(freqs, w, ens.coupling)

    def observe(t, y):
        v, x, z = step.observe(y)
        op = OrderParameter.from_dots(x, z)
        e = _trusted(ens, phases=y[0].copy(), freqs=freqs)
        rows.append((t, e, op.r, op.phi, e.n * op.r**2 / 2.0, mean_phase(e)))
        return np.max(np.abs(v))

    _, stopped_on = drive(step, ens.phases[None], cfg, observe)
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

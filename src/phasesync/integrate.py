"""Fixed-step RK4 integration with diagnostic recording and stationarity
detection: the one stepper, run loop and result record shared by the
finite-N and the kinetic simulators, and the finite-N entries.

Deterministic: identical (ensemble, config) inputs give bitwise-identical
trajectories on a given platform.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from . import rng
from .core import OrderParameter, OscillatorEnsemble, _cos_sin, _trig, field_into, finite_n_rhs, trig_scale


class NonFiniteStateError(RuntimeError):
    """The integrated state became non-finite."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t={time:g}")
        self.time = time

    def __reduce__(self):  # args holds the message, not the time
        return type(self), (self.time,)


@dataclass
class SimConfig:
    dt: float = 0.01
    t_max: float = 100.0
    record_every: int = 1
    stationarity_tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.dt <= self.t_max < np.inf):
            raise ValueError("need 0 < dt <= t_max, both finite")
        steps = self.t_max / self.dt  # past 2**53 (or inf) every float is whole: no check
        if not (steps <= 2.0**53 and min(steps % 1.0, -steps % 1.0) <= min(1e-9 * steps, 1e-3)):
            raise ValueError(f"t_max = {self.t_max!r} is not a whole number of steps dt = {self.dt!r} (<= 2**53)")
        if not (isinstance(self.record_every, (int, np.integer)) and self.record_every >= 1):
            raise ValueError("record_every must be an integer >= 1")
        if not 0 < self.stationarity_tol < np.inf:  # NaN fails too
            raise ValueError("stationarity_tol must be finite and > 0")

    @property
    def n_steps(self) -> int:
        """The whole number of steps dt to t_max."""
        return int(round(self.t_max / self.dt))


class Stepper:
    """The RK4 step of weighted particles in their mean field, recomputed at
    every stage (4th order for the nonlocal system), in coefficient space.

    Stage s keeps only its cos and sin (a = trig_scale(n)), two rows of one
    buffer C. With its dots d_s = (x_s, y_s) with the weights, its velocity
    is omega plus (K d_s G_v) . (cos, sin) and its log-Jacobian rate (K d_s
    G_j) . (cos, sin), for the 2x2 maps G of _coefficients, so no stage rate
    is built. Stage s + 1's input is ph = a (theta + h omega), or pd = a
    (theta + dt omega) for stage 4, plus (A_s, B_s) . (cos, sin), (A_s, B_s)
    = d_s (a h_s K G_v): one product of windows of C and of a vector D of
    dots, coefficients and 0s and 1s, as one call per step puts both bases
    in C. From HALF_ANGLE_MIN on, that call is an add, C is c2 s2 | ph | c1
    s1 | pd | c3 s3 | c4 s4 and D (1 A1 B1 x1 y1 | x2 y2 A2 B2 | 1 A3 B3 x3
    y3 | x4 y4): an input is a 3-row dot and _trig, d_s a dot of its cos/sin
    with the weights, and (A_s, B_s) d_s times a map. Below it, the call is
    a gemm of ((1, h), (1, dt)) with the state's (theta, omega) (a state
    buffer holds omega in its third row; an outside y's phases are first
    copied to a third buffer), C is c2 s2 | c1 s1 | -pi/2 ph pd -pi/2 | c3
    s3 | c4 s4 and D (x1 y1 A1 A1 B1 B1 0 1 1 1 | x2 y2 A2 A2 B2 B2 0 0 0 0
    0 1 1 1 | 1 1 0 1 A3 A3 B3 B3 x3 y3 | x4 y4). A (4, 2) window of D and 4
    rows of C (6 for stage 3) give u and u - pi/2 in one gemm, whose np.cos
    is the stage's cos and sin (stage 1 takes np.cos and np.sin, as
    field_into does), and one gemv of a (6, 2n) block of the gemv blocks
    times the weights with stage s's flat cos/sin gives d_s and (A_s, A_s,
    B_s, B_s). Both new state rows are one gemm M . C (plus the old
    log-Jacobians), where M = D . P holds the stages' RK4-weighted
    coefficients and 1/a on pd (exact: a is 1 or 1/2, each entry one
    product). Without log_jac the phase row of the same gemm is kept,
    bitwise as with it.

    Built once per run and keyed to its dt, it binds its buffers' views, its
    trig pass, its dt bases, blocks or maps, and P, and no reference to
    itself. y is (rows, n): the phases, and with log_jac their log-Jacobians.
    A step returns the state buffer y is not, overwritten two steps later; a
    step of the y observe last saw reuses the stage 1 it left.
    """

    def __init__(self, omegas, weights, coupling, dt, log_jac=False):
        n, a = omegas.size, trig_scale(omegas.size)
        self._omegas, self._w, self._coupling, self._a = omegas, weights, coupling, a
        s0, s1 = np.empty((3 if a == 1.0 else 2, n)), np.empty((3 if a == 1.0 else 2, n))
        self._states = s0[:2], s1[:2]  # what a step writes
        self._outs = self._states if log_jac else (s0[:1], s1[:1])  # what a step returns
        self._rows = s0[0], s1[0]  # the phase row that a step of a returned state reads
        (mh, mdt), blocks, hd, d0, self._P = _coefficients(dt, coupling, a)
        m = len(self._P.T) // 2  # C's rows
        C, D, M = self._C, self._D, self._M = np.empty((m, n)), d0.copy(), np.empty((2, m))
        self._u, self._au, self._seen = np.empty(n), None if a == 1.0 else np.empty(n), None
        if a == 1.0:  # stage s = 1-3's (6, 2n) block . flat cos/sin: d_s and (A_s, A_s, B_s, B_s)
            C[4:8:3], u, w2 = -np.pi / 2, np.empty((2, n)), D.reshape(-1, 2).T  # w2[:, k] is D[2k:2k + 2]
            self._ext = np.empty((3, n))  # for an outside y's phases
            s0[2] = s1[2] = self._ext[2] = omegas  # a state's (theta, omega): its rows 0 and 2
            self._tw, self._maps, self._cs1, self._d1 = (s0[::2], s1[::2], self._ext[::2]), (), C[2:4], D[0:2]
            rows, flat, bases, dws = (blocks * weights).reshape(10, 2 * n), C.reshape(-1), C[5:7], hd
            x1, y1, q1, x2, y2, q2 = rows[4:], flat[2 * n:4 * n], D[0:6], rows[4:], flat[:2 * n], D[10:16]
            x3, y3, q3 = rows[:6], flat[8 * n:10 * n], D[28:34]
            # per stage s = 2-4: its window of D, the rows of C that takes, and its cos/sin pair (no own sin row)
            stages = (w2[:, 1:5], C[2:6], C[0:2], None, w2[:, 6:12], C[0:6], C[8:10], None,
                      w2[:, 12:16], C[6:10], C[10:12], None)
        else:  # stage s's x_s . y_s (its cos/sin, the weights) gives d_s; (map, window) then (A_s, B_s)
            x1, x2, x3, q1, q2, q3, (y1, y2, y3) = C[3:5], C[0:2], C[6:8], D[3:5], D[5:7], D[12:14], [weights] * 3
            u, self._maps, self._cs1, self._d1 = self._u, ((mh, D[1:3]), (mh, D[7:9]), (mdt, D[10:12])), C[3:5], D[3:5]
            bases, dws, stages = C[2:6:3], hd * omegas, (D[0:3], C[2:5], C[0], C[1], D[7:10], C[0:3], C[6], C[7],
                                                         D[9:12], C[5:8], C[8], C[9])
        self._fill1 = functools.partial(q1.dot, *self._maps[0]) if self._maps else functools.partial(x1.dot, y1, q1)
        self._views = (_cos_sin if a == 1.0 else _trig, weights, u, self._maps, bases, dws, *self._cs1,
                       x1, y1, q1, x2, y2, q2, x3, y3, q3, *stages, C[-2:], D[-2:], M.reshape(-1))

    def __call__(self, y):
        (trig, w, u, maps, bases, dws, c1, s1, x1, y1, q1, x2, y2, q2, x3, y3, q3,
         k2, in2, c2, s2, k3, in3, c3, s3, k4, in4, c4, s4, cs4, d4, m_flat) = self._views
        i = y is self._outs[0]  # a step writes the state buffer that y is not
        mine, out, ret = y is self._outs[not i], self._states[i], self._outs[i]
        u1 = self._rows[not i] if mine else y[0]
        if maps:  # the bases: one add of (a h omega, a dt omega) to a theta
            u1 = np.multiply(u1, self._a, self._au)
            np.add(u1, dws, bases)
        else:  # one gemm of ((1, h), (1, dt)) with (theta, omega) of y's buffer, or of a copy of y's phases
            if not mine:
                self._ext[0] = u1
            dws.dot(self._tw[not i if mine else 2], bases)
        if y is not self._seen:
            trig(u1, c1, s1)
            x1.dot(y1, q1)
            if maps:
                q1.dot(*maps[0])
        self._seen = None
        if maps:
            trig(k2.dot(in2, u), c2, s2)
            x2.dot(y2, q2)
            q2.dot(*maps[1])
            trig(k3.dot(in3, u), c3, s3)
            x3.dot(y3, q3)
            q3.dot(*maps[2])
            trig(k4.dot(in4, u), c4, s4)
        else:  # c_s holds both rows: np.cos of (u, u - pi/2)
            np.cos(k2.dot(in2, u), c2)
            x2.dot(y2, q2)
            np.cos(k3.dot(in3, u), c3)
            x3.dot(y3, q3)
            np.cos(k4.dot(in4, u), c4)
        cs4.dot(w, d4)
        self._D.dot(self._P, m_flat)
        self._M.dot(self._C, out)
        if ret is out:  # the log-Jacobians add their old values
            np.add(out[1], y[1], out[1])
        return ret

    def observe(self, y):
        """field_into's (v, x, y) at the state y; its cos/sin and dots, with _fill1's (A1, B1), stay
        as stage 1 of a next step of y (so y must not change in between)."""
        ay = y[0] if self._a == 1.0 else np.multiply(y[0], self._a, self._au)
        self._seen = y
        vxy = field_into(ay, self._omegas, self._w, self._coupling, self._cs1, self._u, self._C[0], self._d1)
        self._fill1()
        return vxy


@functools.lru_cache(maxsize=64)
def _coefficients(dt, coupling, a):
    """For a stage's dots d = (x, y), K d G_v = (K y, -K x) are the velocity's
    coefficients on its (cos, sin) rows and K d G_j = (-K x, -K y) the
    log-Jacobian rate's. Returns, for the layout of a (see Stepper): the
    stage-input maps (a h K G_v, a dt K G_v), h = dt/2, which the layout from
    HALF_ANGLE_MIN on reads; below it, the gemv blocks (10, 2, 1), read in
    the maps' place, whose rows 4-9, 4-9 and 0-5 (each map row twice) times
    the weights take stage 1, 2 and 3's (cos, sin) to its window of D, and
    else None; the bases' factors, ((1, h), (1, dt)) of (theta, omega)
    below HALF_ANGLE_MIN and (a h, a dt) of omega else; D's constants; and P
    with D . P = M: row r of M holds dt b_s times stage s's coefficients of
    state row r (phase, log-Jacobian), b = (1, 2, 2, 1)/6, in the columns of
    its rows in C, and the phase row 1/a on pd. Read-only: every stepper with
    these keys shares them."""
    small = a == 1.0
    g = coupling * np.array([[[0.0, -1.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, -1.0]]])
    # in C, the cos row of stages 1-4 (the sin row follows), pd's row and the row count; in D, each stage's
    # (x, y), the constant 1s (the first also scales pd) and the size
    cols, pd, m = ((2, 0, 8, 10), 6, 12) if small else ((3, 0, 6, 8), 5, 10)
    xy, ones, size = ((0, 10, 32, 34), [7, 8, 9, 21, 22, 23, 24, 25, 27], 36) if small else ((3, 5, 12, 14), [0, 9], 16)
    d0, p, (s, i, r, j) = np.zeros(size), np.zeros((size, 2, m)), np.ix_(range(4), range(2), range(2), range(2))
    p[np.array(xy)[s] + i, r, np.array(cols)[s] + j] = (dt * np.array([1.0, 2.0, 2.0, 1.0]) / 6.0)[s] * g[r, i, j]
    p[ones[0], 0, pd], d0[ones] = 1.0 / a, 1.0
    hd, blocks = np.array([[a * 0.5 * dt], [a * dt]]), None
    maps = hd[..., None] * g[0]
    if small:  # each map row twice, (A, A, B, B); the bases' rows of (theta, omega)
        dup = maps.transpose(0, 2, 1).repeat(2, axis=1)
        blocks, hd = np.vstack([dup[1], np.eye(2), dup[0]])[..., None], np.hstack([np.ones((2, 1)), hd])
        blocks.flags.writeable = False
    for arr in (maps, hd, d0, p):
        arr.flags.writeable = False
    return maps, blocks, hd, d0, p.reshape(size, -1)


def _trusted(obj, **fields):
    """obj with some fields replaced, built without __post_init__: the others
    were checked when obj was built, and the new ones are a step's finite
    float state."""
    moved = object.__new__(type(obj))
    vars(moved).update(vars(obj), **fields)
    return moved


def _step(y, omegas, weights, coupling, dt):
    """One RK4 step of y (phases, and with a second row their log-Jacobians)
    by a fresh Stepper; None if the new state is not finite."""
    y = Stepper(omegas, weights, coupling, dt, len(y) == 2)(y)
    return y if np.isfinite(y).all() else None


def step_rk4(ens: OscillatorEnsemble, dt: float) -> OscillatorEnsemble:
    """One classical RK4 step (dt may be negative); frequencies and coupling
    unchanged."""
    y = _step(ens.phases[None], ens.freqs, np.full(ens.n, 1.0 / ens.n), ens.coupling, dt)
    if y is None:
        raise ValueError("the step made the phases non-finite")
    return _trusted(ens, phases=y[0], freqs=ens.freqs.copy())


def detect_stationarity(ens: OscillatorEnsemble, tol: float = 1e-9) -> bool:
    """True iff max_i |theta_dot_i - W| < tol, W the mean frequency: a run's stop
    rule (see _run)."""
    w = np.full(ens.n, 1.0 / ens.n)
    return bool(np.abs(finite_n_rhs(ens) - (w * ens.freqs).sum()).max() < tol)


@dataclass
class Trajectory:
    """The rows a run records (see _run): times, R, phi, U = N R^2/2, the
    weighted mean phase, H = sum w theta omega + K R^2/2 and, for a kinetic
    run, the entropy change -sum w log-Jacobian (see kinetic.entropy_change);
    final is the last recorded state. A finite run keeps its recorded phases
    instead, one row each."""

    times: np.ndarray
    r_series: np.ndarray
    phi_series: List[Optional[float]]
    u_series: np.ndarray
    mean_phase_series: np.ndarray
    h_series: np.ndarray
    entropy_series: Optional[np.ndarray]  # kinetic runs only
    final: Any  # an OscillatorEnsemble, or a kinetic PhaseMeasure
    stopped_on: str = "t_max"  # "t_max" or "stationary"
    _phases: Optional[List[np.ndarray]] = field(default=None, repr=False)  # finite runs only

    @property
    def states(self) -> List[OscillatorEnsemble]:
        """The recorded ensembles of a finite run, sharing final's frequencies."""
        if self._phases is None:
            raise AttributeError("only a finite run keeps its recorded states")
        return [_trusted(self.final, phases=p) for p in self._phases]


def _run(y, omegas, weights, coupling, cfg: SimConfig, final, time=0.0) -> Trajectory:
    """The run of both models: weighted particles with state y (phases, and in
    a kinetic run log-Jacobians) stepped from t = time; final(y, t) builds the
    last recorded state. A row, at the start and every record_every steps up
    to the last, is one Stepper.observe plus the state's weighted dots in one
    2-row gemv (a finite run's phases over a zero row: BLAS sends a 1-row
    product to a plain dot, whose sum differs in the last bit), so a finite
    run records bitwise what its equal-weight kinetic run records. It stops
    at t_max, or at a row after the start that is stationary in the frame
    co-rotating at the mean frequency W = sum w omega: max|v - W| <
    stationarity_tol (sum w v = W, as sum w sin(phi - theta) = 0). NaN
    and inf spread, so each block of steps is tested once, at its end; a block
    that fails is replayed to raise NonFiniteStateError at its first bad step."""
    rows, kept, k = [], [], 0
    finite, wo = len(y) == 1, weights * omegas
    mean_omega = wo.sum()
    two = np.zeros((2, y.shape[1]))  # a row's state, a finite run's phases over a zero row
    step = Stepper(omegas, weights, coupling, cfg.dt, log_jac=not finite)
    dt, n_steps = cfg.dt, cfg.n_steps
    zeros = np.zeros(y.shape)  # y . 0 is 0 iff y is finite: 0 * inf and 0 * nan are nan
    while True:
        v, x, z = step.observe(y)
        op = OrderParameter.from_dots(x, z)
        if finite:
            kept.append(y[0].copy())
        two[:len(y)], start = y, k  # the next block is replayed from there
        mp, lj = two.dot(weights)
        rows.append((time + k * dt, op.r, op.phi, float(mp),
                     float(y[0].dot(wo)) + coupling * op.r**2 / 2.0, -float(lj)))
        stationary = k > 0 and np.abs(v - mean_omega).max() < cfg.stationarity_tol
        if stationary or k == n_steps:
            break
        for k in range(k + 1, min(k + cfg.record_every, n_steps) + 1):
            y = step(y)
        if np.vdot(y, zeros) != 0.0:
            y = two[:len(y)]
            for k in range(start + 1, k + 1):
                y = step(y)
                if np.vdot(y, zeros) != 0.0:
                    raise NonFiniteStateError(time + k * dt)
    times, r, phi, mp, h, s = zip(*rows)
    r = np.asarray(r)
    return Trajectory(
        times=np.asarray(times),
        r_series=r,
        phi_series=list(phi),
        u_series=weights.size * np.float_power(r, 2) / 2.0,  # libm pow, as potential_u's r**2
        mean_phase_series=np.asarray(mp),
        h_series=np.asarray(h),
        entropy_series=None if finite else np.asarray(s),
        final=final(y, times[-1]),
        stopped_on="stationary" if stationary else "t_max",
        _phases=kept if finite else None,
    )


def simulate(ens: OscillatorEnsemble, cfg: SimConfig) -> Trajectory:
    """Integrate to t_max, or until stationarity, recording diagnostics every
    record_every steps and at the initial and final states: the run of the
    equal-weight measure without log-Jacobians, each row's phases kept as its
    state."""
    freqs = ens.freqs.copy()
    freqs.flags.writeable = False  # one copy, shared by every state
    return _run(ens.phases[None], freqs, np.full(ens.n, 1.0 / ens.n), ens.coupling, cfg,
                lambda y, t: _trusted(ens, phases=y[0], freqs=freqs))


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
    if not freq_halfwidth >= 0:  # NaN fails too
        raise ValueError("freq_halfwidth must be >= 0")
    phases = rng.uniform(seed, n, -np.pi, np.pi)
    if freq_halfwidth > 0:
        freqs = rng.uniform(int(rng.splitmix64(seed, 1)[0]), n, -freq_halfwidth, freq_halfwidth)
        if zero_mean:
            freqs = freqs - np.mean(freqs)
    else:
        freqs = np.zeros(n)
    return OscillatorEnsemble(phases, freqs, coupling)

"""The coefficient-space RK4 stepper against the v0.7.0 stepper it replaced,
and against its own v0.21.0 form.

The first oracle is the v0.7.0 code path kept here verbatim: a closure over
the allocating field, the classical rk4_step, and (kinetic) the log-Jacobian
stage rates combined with the same weights and stacked with np.stack. Since
v0.9.0 the stepper sums each stage's terms in another order, so states and
series match the oracle to TOL, while times, stop reasons and stop rows
match exactly; public steps, runs and reruns still match each other bitwise.
The second is v0.21.0's Stepper, kept here verbatim too: runs from
HALF_ANGLE_MIN particles on are bitwise its runs (and v0.19.0's, whose path
there it keeps); v0.22.0 takes the sin of stages 2-4 below
HALF_ANGLE_MIN as cos(u - pi/2), so runs there match it to TOL.
"""
import dataclasses
import functools
import gc
import os
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import phasesync as ps
from phasesync.core import _cos_sin, _trig, field_into, trig_scale


def field_v070(thetas, omegas, weights, coupling, log_jac=True):
    if thetas.size < ps.core.HALF_ANGLE_MIN:
        c, s = np.cos(thetas), np.sin(thetas)
    else:
        t = np.tan(0.5 * thetas)
        q = t * t
        d = 1.0 / (1.0 + q)
        c, s = (1.0 - q) * d, (t + t) * d
    kx = coupling * c.dot(weights)
    ky = coupling * s.dot(weights)
    v = omegas + ky * c - kx * s
    return (v, -kx * c - ky * s) if log_jac else v


def rk4_combine_v070(y, dt, k1, k2, k3, k4):
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def rk4_step_v070(rate, y, dt):
    h = 0.5 * dt
    k1 = rate(y)
    k2 = rate(y + h * k1)
    k3 = rate(y + h * k2)
    k4 = rate(y + dt * k3)
    return rk4_combine_v070(y, dt, k1, k2, k3, k4)


def finite_step_v070(ens):
    w = np.full(ens.n, 1.0 / ens.n)
    rate = lambda phases: field_v070(phases, ens.freqs, w, ens.coupling, False)
    return (lambda y, dt: rk4_step_v070(rate, y, dt)), rate


def kinetic_step_v070(meas):
    w, om, k = meas.weights, meas.omegas, meas.coupling

    def step(y, dt):
        jac_rates = []

        def rate(thetas):
            v, jac_rate = field_v070(thetas, om, w, k)
            jac_rates.append(jac_rate)
            return v
        thetas = rk4_step_v070(rate, y[0], dt)
        return np.stack([thetas, rk4_combine_v070(y[1], dt, *jac_rates)])

    return step, lambda y: field_v070(y[0], om, w, k, False)


def drive_v070(step, velocity, y, cfg, time=0.0):
    """v0.7.0's driver loop: the recorded (t, y) rows and the stop reason."""
    n_steps = int(round(cfg.t_max / cfg.dt))
    rows = [(time, y)]
    for k in range(1, n_steps + 1):
        y = step(y, cfg.dt)
        t = time + k * cfg.dt
        if not np.isfinite(y).all():
            raise ps.NonFiniteStateError(t)
        if k % cfg.record_every == 0 or k == n_steps:
            rows.append((t, y))
            if np.max(np.abs(velocity(y))) < cfg.stationarity_tol:
                return rows, "stationary"
    return rows, "t_max"


# v0.21.0's Stepper and _coefficients, verbatim but for their names. In its buffer C, the cos row of stages
# 1-4 (the sin row follows) and the row of pd; in its D, each stage's (x, y)
_COS_ROWS, _PD_ROW, _XY = (3, 0, 6, 8), 5, (3, 5, 12, 14)


class StepperV0210:
    """The RK4 step of weighted particles in their mean field, recomputed at
    every stage (4th order for the nonlocal system), in coefficient space.

    Stage s keeps only its cos and sin (a = trig_scale(n)), two rows of one
    (10, n) buffer C laid out c2 s2 | ph | c1 s1 | pd | c3 s3 | c4 s4. With
    its dots d_s = (x_s, y_s) with the weights, its velocity is omega plus
    (K d_s G_v) . (cos, sin) and its log-Jacobian rate (K d_s G_j) . (cos,
    sin), for the 2x2 maps G of _coefficients, so no stage rate is built. The
    bases ph = a (theta + h omega) and pd = a (theta + dt omega), one add per
    step, sit next to the rows they are added to, so the next stage input is
    one 3-row dot with a window of D = (1 A1 B1 x1 y1 | x2 y2 A2 B2 | 1 A3 B3
    x3 y3 | x4 y4), (A_s, B_s) = d_s (a h_s K G_v). Below HALF_ANGLE_MIN one
    gemv of a (4, 2n) block of the weights with the flat cos/sin gives d_s
    and (A_s, B_s); from there on, v0.19.0's weight dot and 2x2 map do. Both
    new state rows are one gemm M . C (plus the old log-Jacobians), where M =
    D . P (2, 10) holds the stages' RK4-weighted coefficients and 1/a on pd
    (exact: a is 1 or 1/2, each entry one product). Without log_jac the
    phase row of the same gemm is kept, bitwise as with it.

    Built once per run and keyed to its dt, it binds its buffers' views, its
    trig pass, its dt bases, blocks or maps, and P, and no reference to
    itself. y is (rows, n): the phases, and with log_jac their log-Jacobians.
    A step returns the state buffer y is not, overwritten two steps later; a
    step of the y observe last saw reuses the stage 1 it left.
    """

    def __init__(self, omegas, weights, coupling, dt, log_jac=False):
        n, a = omegas.size, trig_scale(omegas.size)
        self._omegas, self._w, self._coupling, self._a = omegas, weights, coupling, a
        s0, s1 = self._states = np.empty((2, n)), np.empty((2, n))
        self._outs = (s0, s1) if log_jac else (s0[:1], s1[:1])  # what a step returns
        self._rows = s0[0], s1[0]  # the phase row that a step of a returned state reads
        C, D, M = self._C, self._D, self._M = np.empty((10, n)), np.empty(16), np.empty((2, 10))
        self._u, self._au = np.empty(n), None if a == 1.0 else np.empty(n)
        (mh, mdt), blocks, hd, self._P = coefficients_v0210(dt, coupling, a)
        D[0], D[9], self._seen = 1.0, 1.0, None
        c2, s2, _, c1, s1, _, c3, s3, c4, s4 = C
        self._cs1, self._d1, cs4 = C[3:5], D[3:5], C[8:10]
        if a == 1.0:  # stage s = 1-3's x_s . y_s, its (4, 2n) block . flat cos/sin: d_s and (A_s, B_s)
            rows, flat = (blocks * weights).reshape(8, 2 * n), C.reshape(-1)
            x1, y1, q1, x2, y2, q2 = rows[4:], flat[3 * n:5 * n], D[1:5], rows[2:6], flat[:2 * n], D[5:9]
            x3, y3, q3, self._maps = rows[:4], flat[6 * n:8 * n], D[10:14], ()
        else:  # stage s's x_s . y_s (its cos/sin, the weights) gives d_s; (map, window) then (A_s, B_s)
            x1, x2, x3, q1, q2, q3, (y1, y2, y3) = C[3:5], C[0:2], C[6:8], D[3:5], D[5:7], D[12:14], [weights] * 3
            self._maps = ((mh, D[1:3]), (mh, D[7:9]), (mdt, D[10:12]))
        self._fill1 = functools.partial(q1.dot, *self._maps[0]) if self._maps else functools.partial(x1.dot, y1, q1)
        self._views = (_cos_sin if a == 1.0 else _trig, weights, self._u, self._maps, C[2:6:3], hd * omegas,
                       D[0:3], C[2:5], D[7:10], C[0:3], D[9:12], C[5:8], c1, s1, x1, y1, q1, c2, s2, x2, y2, q2,
                       c3, s3, x3, y3, q3, c4, s4, cs4, D[14:16], M.reshape(-1))

    def __call__(self, y):
        (trig, w, u, maps, bases, dws, k2, in2, k3, in3, k4, in4, c1, s1, x1, y1, q1, c2, s2, x2, y2, q2,
         c3, s3, x3, y3, q3, c4, s4, cs4, d4, m_flat) = self._views
        i = y is self._outs[0]  # a step writes the state buffer that y is not
        row, out, ret = self._rows[not i] if y is self._outs[not i] else y[0], self._states[i], self._outs[i]
        u1 = row if self._a == 1.0 else np.multiply(row, self._a, self._au)
        np.add(u1, dws, bases)
        if y is not self._seen:
            trig(u1, c1, s1)
            x1.dot(y1, q1)
            if maps:
                q1.dot(*maps[0])
        self._seen = None
        trig(k2.dot(in2, u), c2, s2)
        x2.dot(y2, q2)
        if maps:
            q2.dot(*maps[1])
        trig(k3.dot(in3, u), c3, s3)
        x3.dot(y3, q3)
        if maps:
            q3.dot(*maps[2])
        trig(k4.dot(in4, u), c4, s4)
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
def coefficients_v0210(dt, coupling, a):
    """For a stage's dots d = (x, y), K d G_v = (K y, -K x) are the velocity's
    coefficients on its (cos, sin) rows and K d G_j = (-K x, -K y) the
    log-Jacobian rate's. Returns the stage-input maps (a h K G_v, a dt K G_v),
    h = dt/2; the (8, 2, 1) blocks whose rows 4-7, 2-5 and 0-3 take stage 1,
    2 and 3's (cos, sin) to its window of Stepper's D (times the weights, its
    gemv block); the bases' factors (a h, a dt) of omega; and the (16, 20) P
    with D . P = M: row r of M holds dt b_s times stage s's coefficients of
    state row r (phase, log-Jacobian), b = (1, 2, 2, 1)/6, in the columns of
    its rows in Stepper's C, and the phase row 1/a on pd. Read-only: every
    stepper with these keys shares them."""
    g = coupling * np.array([[[0.0, -1.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, -1.0]]])
    p = np.zeros((16, 2, 10))
    for b, col, xy in zip((1.0, 2.0, 2.0, 1.0), _COS_ROWS, _XY):
        p[xy:xy + 2, :, col:col + 2] = (dt * b / 6.0) * g.transpose(1, 0, 2)
    p[0, 0, _PD_ROW] = 1.0 / a
    hd, eye = np.array([[a * 0.5 * dt], [a * dt]]), np.eye(2)
    maps = hd[..., None] * g[0]
    blocks = np.vstack([maps[1].T, eye, maps[0].T, eye])[..., None]
    for arr in (maps, blocks, hd, p):
        arr.flags.writeable = False
    return maps, blocks, hd, p.reshape(16, 20)


def run_v0210(monkeypatch, simulate, state, cfg):
    """simulate (or kinetic_simulate) of state by v0.21.0's Stepper, as stepper's (step, observe)."""
    def stepper_v0210(*args):
        st = StepperV0210(*args)
        return st.__call__, st.observe

    with monkeypatch.context() as m:
        m.setattr(ps.integrate, "stepper", stepper_v0210)
        return simulate(state, cfg)


def ensemble(n, coupling, mean_freq, halfwidth=0.5, seed=5):
    ens = ps.seeded_ensemble(n, coupling=coupling, seed=seed, freq_halfwidth=halfwidth)
    return ps.OscillatorEnsemble(ens.phases, ens.freqs + mean_freq, coupling)


def measure(n, coupling, mean_freq):
    # m phase nodes times n/m frequency nodes (511 = 7 * 73, 100 = 10 * 10)
    m = next(m for m in (8, 7, 10) if n % m == 0)
    spec = ps.ProductSpec(ps.Uniform(0.3, 2.0), ps.Uniform(mean_freq, 0.4), n // m)
    meas = ps.discretize(spec, m, coupling=coupling)
    assert meas.n_particles == n
    return meas


FINITE_NS = [10, 511, 512, 2000]
KINETIC_NS = [64, 511, 512, 4096]  # 512 is the first half-angle size
CASES = [(1.3, 0.25), (0.0, 0.25), (0.9, 0.0)]  # (K, mean frequency)

# Largest difference from the v0.7.0 oracle over every case in this file:
# 2.2e-14 in a state and 2.8e-14 in a series (U = N R^2/2 at N = 2000).
TOL = 1e-13


def assert_close(got, want):
    """Element-wise within TOL; None (an undefined phi) only where want has it."""
    got, want = list(np.ravel(got)), list(np.ravel(want))
    assert len(got) == len(want)
    assert [g is None for g in got] == [w is None for w in want]
    pairs = np.array([(g, w) for g, w in zip(got, want) if w is not None], dtype=float).reshape(-1, 2)
    assert np.max(np.abs(pairs[:, 0] - pairs[:, 1]), initial=0.0) <= TOL


def same(got, want, n):
    """Bitwise from HALF_ANGLE_MIN particles on, to TOL below."""
    if n < ps.core.HALF_ANGLE_MIN:
        assert_close(got, want)
    else:
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def recorded(cfg, n_rows):
    """The step numbers of the first n_rows recorded rows."""
    n_steps = int(round(cfg.t_max / cfg.dt))
    return [k for k in range(n_steps + 1) if k % cfg.record_every == 0 or k == n_steps][:n_rows]


def step_chain(step, cur, dt, ks):
    """cur after each step count in ks, by chained public steps."""
    out = []
    for k in range(ks[-1] + 1):
        if k:
            cur = step(cur, dt)
        if k in ks:
            out.append(cur)
    return out


class TestFiniteMatchesV070:
    @pytest.mark.parametrize("n", FINITE_NS)
    @pytest.mark.parametrize("k,mean", CASES)
    def test_simulate_bitwise(self, n, k, mean):
        # bitwise against a step_rk4 chain and a rerun; to TOL against v0.7.0
        ens = ensemble(n, k, mean)
        cfg = ps.SimConfig(dt=0.05, t_max=3.0, record_every=7)
        rows, stopped_on = drive_v070(*finite_step_v070(ens), ens.phases, cfg)
        traj = ps.simulate(ens, cfg)
        assert traj.stopped_on == stopped_on
        assert np.array_equal(traj.times, [t for t, _ in rows])
        assert_close([s.phases for s in traj.states], [y for _, y in rows])
        refs = [ps.OscillatorEnsemble(y, ens.freqs, k) for _, y in rows]
        ops = [ps.order_parameter(e) for e in refs]
        assert_close(traj.r_series, [op.r for op in ops])
        assert_close(traj.phi_series, [op.phi for op in ops])
        assert_close(traj.u_series, [n * op.r**2 / 2.0 for op in ops])
        assert_close(traj.mean_phase_series, [ps.mean_phase(e) for e in refs])
        chain = step_chain(ps.step_rk4, ens, cfg.dt, recorded(cfg, len(rows)))
        assert all(np.array_equal(s.phases, c.phases) for s, c in zip(traj.states, chain, strict=True))
        again = ps.simulate(ens, cfg)
        assert all(np.array_equal(a.phases, b.phases) for a, b in zip(traj.states, again.states, strict=True))
        assert np.array_equal(traj.r_series, again.r_series) and traj.phi_series == again.phi_series

    def test_simulate_bitwise_stationary_stop(self):
        ens = ps.seeded_ensemble(10, coupling=1.0, seed=2)
        cfg = ps.SimConfig(dt=0.1, t_max=400.0, record_every=25)
        rows, stopped_on = drive_v070(*finite_step_v070(ens), ens.phases, cfg)
        traj = ps.simulate(ens, cfg)
        assert stopped_on == traj.stopped_on == "stationary"
        assert np.array_equal(traj.times, [t for t, _ in rows])
        assert_close(traj.final.phases, rows[-1][1])
        chain = step_chain(ps.step_rk4, ens, cfg.dt, recorded(cfg, len(rows))[-1:])
        assert np.array_equal(traj.final.phases, chain[0].phases)

    @pytest.mark.parametrize("n", FINITE_NS)
    def test_step_rk4_bitwise(self, n):
        # to TOL against v0.7.0's step, bitwise against simulate's states
        ens = ensemble(n, 1.1, 0.25)
        step, _ = finite_step_v070(ens)
        cur, y = ens, ens.phases
        states = ps.simulate(ens, ps.SimConfig(dt=0.04, t_max=0.4)).states
        for state in states[1:]:
            cur, y = ps.step_rk4(cur, 0.04), step(y, 0.04)
            assert_close(cur.phases, y)
            assert np.array_equal(cur.phases, state.phases)


class TestKineticMatchesV070:
    @pytest.mark.parametrize("n", KINETIC_NS)
    @pytest.mark.parametrize("k,mean", CASES)
    def test_kinetic_simulate_bitwise(self, n, k, mean):
        # bitwise against a kinetic_step chain and a rerun; to TOL against v0.7.0
        meas = measure(n, k, mean)
        cfg = ps.SimConfig(dt=0.05, t_max=3.0, record_every=7)
        rows, stopped_on = drive_v070(*kinetic_step_v070(meas), np.stack([meas.thetas, meas.log_jacs]), cfg)
        traj = ps.kinetic_simulate(meas, cfg)
        assert traj.stopped_on == stopped_on
        assert np.array_equal(traj.times, [t for t, _ in rows])
        w = meas.weights
        ops = [ps.weighted_order_parameter(w, y[0]) for _, y in rows]
        assert_close(traj.r_series, [op.r for op in ops])
        assert_close(traj.phi_series, [op.phi for op in ops])
        assert_close(traj.entropy_series, [-float(np.sum(w * y[1])) for _, y in rows])
        assert_close(traj.mean_phase_series, [float(np.sum(w * y[0])) for _, y in rows])
        assert_close(traj.h_series, [float(np.sum(w * y[0] * meas.omegas)) + k * op.r**2 / 2.0
                                     for (_, y), op in zip(rows, ops)])
        assert_close(traj.final.thetas, rows[-1][1][0])
        assert_close(traj.final.log_jacs, rows[-1][1][1])
        assert traj.final.time == rows[-1][0]
        last = step_chain(ps.kinetic_step, meas, cfg.dt, recorded(cfg, len(rows))[-1:])[0]
        again = ps.kinetic_simulate(meas, cfg)
        for other in (last, again.final):
            assert np.array_equal(traj.final.thetas, other.thetas)
            assert np.array_equal(traj.final.log_jacs, other.log_jacs)
        assert np.array_equal(traj.r_series, again.r_series) and np.array_equal(traj.h_series, again.h_series)

    @pytest.mark.parametrize("n", KINETIC_NS)
    def test_kinetic_step_bitwise(self, n):
        # to TOL against v0.7.0's step, bitwise against kinetic_simulate
        meas = measure(n, 1.4, 0.25)
        step, _ = kinetic_step_v070(meas)
        cur, y = meas, np.stack([meas.thetas, meas.log_jacs])
        for _ in range(10):
            cur, y = ps.kinetic_step(cur, 0.04), step(y, 0.04)
            assert_close(cur.thetas, y[0])
            assert_close(cur.log_jacs, y[1])
        final = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.04, t_max=0.4)).final
        assert np.array_equal(cur.thetas, final.thetas) and np.array_equal(cur.log_jacs, final.log_jacs)


class TestMatchesV0210:
    """Bitwise v0.21.0's runs from HALF_ANGLE_MIN particles on, and to TOL
    below, where stages 2-4 take sin u as cos(u - pi/2), with the same times
    and stop reasons in both."""

    @pytest.mark.parametrize("n", [10, 100, 511, 512, 2000, 4096])
    @pytest.mark.parametrize("k,mean", CASES)
    def test_simulate(self, monkeypatch, n, k, mean):
        ens = ensemble(n, k, mean)
        cfg = ps.SimConfig(dt=0.05, t_max=3.0, record_every=7)
        got, want = ps.simulate(ens, cfg), run_v0210(monkeypatch, ps.simulate, ens, cfg)
        assert got.stopped_on == want.stopped_on and np.array_equal(got.times, want.times)
        same([s.phases for s in got.states], [s.phases for s in want.states], n)
        for name in ("r_series", "u_series", "mean_phase_series", "h_series", "phi_series"):
            same(getattr(got, name), getattr(want, name), n)

    @pytest.mark.parametrize("n", [10, 100, 511, 512, 2000, 4096])
    @pytest.mark.parametrize("k,mean", CASES)
    def test_kinetic_simulate(self, monkeypatch, n, k, mean):
        meas = measure(n, k, mean)
        cfg = ps.SimConfig(dt=0.05, t_max=3.0, record_every=7)
        got, want = ps.kinetic_simulate(meas, cfg), run_v0210(monkeypatch, ps.kinetic_simulate, meas, cfg)
        assert got.stopped_on == want.stopped_on and np.array_equal(got.times, want.times)
        assert got.final.time == want.final.time and (np.max(np.abs(got.final.log_jacs)) > 0.0) == (k > 0.0)
        same([got.final.thetas, got.final.log_jacs], [want.final.thetas, want.final.log_jacs], n)
        for name in ("r_series", "mean_phase_series", "h_series", "entropy_series"):
            same(getattr(got, name), getattr(want, name), n)

    @pytest.mark.parametrize("n", [10, 100])
    def test_stationary_stop(self, monkeypatch, n):
        ens = ps.seeded_ensemble(n, coupling=1.0, seed=2)
        cfg = ps.SimConfig(dt=0.1, t_max=400.0, record_every=25)
        got, want = ps.simulate(ens, cfg), run_v0210(monkeypatch, ps.simulate, ens, cfg)
        assert got.stopped_on == want.stopped_on == "stationary"
        assert np.array_equal(got.times, want.times)
        assert_close(got.final.phases, want.final.phases)

    def test_long_run_stays_at_rounding_and_replays_from_a_row(self, monkeypatch):
        # 10^4 steps of 10 spread frequencies below K_c: every recorded state is within
        # 4e-13 of v0.21.0's (measured: 2.2e-13), and a run from the state recorded 1000
        # steps before the end ends bitwise where the long run does, so no step depends
        # on the steps before it
        ens = ps.seeded_ensemble(10, coupling=0.3, seed=5, freq_halfwidth=1.0)
        cfg = ps.SimConfig(dt=0.02, t_max=200.0, record_every=1000)
        got, want = ps.simulate(ens, cfg), run_v0210(monkeypatch, ps.simulate, ens, cfg)
        assert got.stopped_on == want.stopped_on == "t_max" and len(got.times) == 11
        gap = max(np.max(np.abs(g.phases - w.phases)) for g, w in zip(got.states, want.states, strict=True))
        assert 0.0 < gap <= 4e-13
        rest = ps.simulate(got.states[-2], ps.SimConfig(dt=0.02, t_max=20.0, record_every=1000))
        assert np.array_equal(rest.final.phases, got.final.phases)


class TestRK4Order:
    """Halving dt divides the error against a dt/8 run by about 2^4 = 16."""

    T = 2.0  # lab-frame drift (mean frequency 0.25) keeps every run off the stationary stop

    @staticmethod
    def ratio(final):
        err = [np.max(np.abs(final(dt) - final(dt / 8))) for dt in (0.04, 0.02)]
        return err[0] / err[1]

    @pytest.mark.parametrize("n", [10, 512])  # 512: the half-angle path
    def test_finite(self, n):
        ens = ensemble(n, 1.3, 0.25)
        final = lambda dt: ps.simulate(ens, ps.SimConfig(dt=dt, t_max=self.T, record_every=10**6)).final.phases
        assert 12.0 <= self.ratio(final) <= 20.0

    def test_kinetic_with_log_jacobian(self):
        meas = measure(512, 1.3, 0.25)

        def final(dt):
            end = ps.kinetic_simulate(meas, ps.SimConfig(dt=dt, t_max=self.T, record_every=10**6)).final
            assert np.max(np.abs(end.log_jacs)) > 0.1
            return np.stack([end.thetas, end.log_jacs])
        assert 12.0 <= self.ratio(final) <= 20.0


def blas_thread_digests(script):
    """What script prints, run in a subprocess with one and with two BLAS threads."""
    src = str(Path(ps.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    return digests


def test_blas_thread_count_leaves_states_bytewise():
    # the step's dots run in BLAS, whose threads could split a sum; a replay
    # must not depend on the thread count
    script = (
        "import hashlib, phasesync as ps\n"
        "spec = ps.ProductSpec(ps.Uniform(0.3, 2.0), ps.Uniform(0.25, 0.4), 64)\n"
        "meas = ps.discretize(spec, 64, coupling=1.3)\n"
        "end = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=0.5, record_every=50)).final\n"
        "assert end.n_particles == 4096 and end.time == 0.5\n"
        "print(hashlib.sha256(end.thetas.tobytes() + end.log_jacs.tobytes()).hexdigest())\n"
    )
    digests = blas_thread_digests(script)
    assert digests[0] == digests[1] and len(digests[0]) == 64


def test_blas_thread_count_leaves_finite_states_bytewise():
    # N = 2000, the finite-large-n size, where each new phase row is one
    # 10-row dot: a replay must not depend on the thread count there either
    script = (
        "import hashlib, numpy as np, phasesync as ps\n"
        "ens = ps.seeded_ensemble(2000, coupling=1.3, seed=3, freq_halfwidth=0.5)\n"
        "traj = ps.simulate(ens, ps.SimConfig(dt=0.01, t_max=0.5, record_every=10))\n"
        "assert len(traj.states) == 6 and traj.stopped_on == 't_max'\n"
        "print(hashlib.sha256(np.stack([s.phases for s in traj.states]).tobytes()).hexdigest())\n"
    )
    digests = blas_thread_digests(script)
    assert digests[0] == digests[1] and len(digests[0]) == 64


def test_blas_thread_count_leaves_wide_states_bytewise():
    # 131072 particles: numpy's OpenBLAS splits these dots over two threads
    # (CPU time about twice wall time), where it splits none at 4096 or 2000
    script = (
        "import hashlib, phasesync as ps\n"
        "spec = ps.ProductSpec(ps.Uniform(0.3, 2.0), ps.Uniform(0.25, 0.4), 512)\n"
        "meas = ps.discretize(spec, 256, coupling=1.3)\n"
        "end = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=0.2, record_every=20)).final\n"
        "assert end.n_particles == 131072 and end.time == 0.2\n"
        "print(hashlib.sha256(end.thetas.tobytes() + end.log_jacs.tobytes()).hexdigest())\n"
    )
    digests = blas_thread_digests(script)
    assert digests[0] == digests[1] and len(digests[0]) == 64


def test_blas_thread_count_leaves_small_finite_states_bytewise():
    # N = 10 to its stationary stop: each stage's dots and next coefficients
    # are one gemv of a (4, 20) block, a BLAS call shape of its own
    script = (
        "import hashlib, numpy as np, phasesync as ps\n"
        "ens = ps.seeded_ensemble(10, coupling=1.0, seed=2)\n"
        "traj = ps.simulate(ens, ps.SimConfig(dt=0.1, t_max=400.0, record_every=25))\n"
        "assert traj.stopped_on == 'stationary'\n"
        "rows = np.stack([s.phases for s in traj.states])\n"
        "print(hashlib.sha256(rows.tobytes() + traj.r_series.tobytes()).hexdigest())\n"
    )
    digests = blas_thread_digests(script)
    assert digests[0] == digests[1] and len(digests[0]) == 64


def test_blas_thread_count_leaves_small_kinetic_states_bytewise():
    # 511 particles, the largest run of the gemv path, with log-Jacobians
    script = (
        "import hashlib, numpy as np, phasesync as ps\n"
        "spec = ps.ProductSpec(ps.Uniform(0.3, 2.0), ps.Uniform(0.25, 0.4), 73)\n"
        "meas = ps.discretize(spec, 7, coupling=1.3)\n"
        "end = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=0.5, record_every=50)).final\n"
        "assert end.n_particles == 511 and end.time == 0.5 and np.abs(end.log_jacs).max() > 0.01\n"
        "print(hashlib.sha256(end.thetas.tobytes() + end.log_jacs.tobytes()).hexdigest())\n"
    )
    digests = blas_thread_digests(script)
    assert digests[0] == digests[1] and len(digests[0]) == 64


class TestResultsOutliveTheStepper:
    """The stepper reuses its buffers: nothing a caller holds may change."""

    @pytest.mark.parametrize("n", [10, 512])
    def test_simulate_states_unchanged_by_later_runs(self, n):
        ens = ensemble(n, 1.2, 0.25)
        cfg = ps.SimConfig(dt=0.05, t_max=1.0, record_every=3)
        traj = ps.simulate(ens, cfg)
        kept = [s.phases.copy() for s in traj.states]
        ps.simulate(ens, cfg)
        cur = traj.final
        for _ in range(3):
            cur = ps.step_rk4(cur, 0.05)
        assert all(np.array_equal(s.phases, p) for s, p in zip(traj.states, kept, strict=True))
        assert len({id(s.phases) for s in traj.states}) == len(traj.states)

    @pytest.mark.parametrize("n", [64, 512])
    def test_kinetic_final_unchanged_by_later_runs_and_steps(self, n):
        meas = measure(n, 1.2, 0.25)
        cfg = ps.SimConfig(dt=0.05, t_max=1.0, record_every=3)
        traj = ps.kinetic_simulate(meas, cfg)
        thetas, log_jacs = traj.final.thetas.copy(), traj.final.log_jacs.copy()
        ps.kinetic_simulate(meas, cfg)
        cur = traj.final
        for _ in range(3):
            cur = ps.kinetic_step(cur, 0.05)
        assert np.array_equal(traj.final.thetas, thetas)
        assert np.array_equal(traj.final.log_jacs, log_jacs)

    def test_chained_steps_leave_earlier_results(self):
        ens = ensemble(12, 1.2, 0.25)
        first = ps.step_rk4(ens, 0.05)
        kept = first.phases.copy()
        second = ps.step_rk4(first, 0.05)
        ps.step_rk4(second, 0.05)
        assert np.array_equal(first.phases, kept)
        meas = measure(64, 1.2, 0.25)
        m1 = ps.kinetic_step(meas, 0.05)
        kept = m1.thetas.copy(), m1.log_jacs.copy()
        ps.kinetic_step(ps.kinetic_step(m1, 0.05), 0.05)
        assert np.array_equal(m1.thetas, kept[0]) and np.array_equal(m1.log_jacs, kept[1])


class TestRecordedRowReuse:
    """A recorded row's observe leaves the state's stage-1 cos/sin and dots
    for the next step, which skips them only if it steps that same object.
    Runs that record every step, or every third (the stepper's own buffers
    then come back with other contents), equal chains of public steps."""

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("n", [10, 512, 2000])
    def test_finite_runs_equal_step_chains(self, n, every):
        ens = ensemble(n, 1.3, 0.25)
        cfg = ps.SimConfig(dt=0.05, t_max=0.6, record_every=every)
        traj = ps.simulate(ens, cfg)
        chain = step_chain(ps.step_rk4, ens, cfg.dt, recorded(cfg, len(traj.states)))
        assert len(traj.states) == (13 if every == 1 else 5)
        assert all(np.array_equal(s.phases, c.phases) for s, c in zip(traj.states, chain, strict=True))

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("n", [64, 4096])
    def test_kinetic_runs_equal_step_chains(self, n, every):
        meas = measure(n, 1.3, 0.25)
        chain = step_chain(ps.kinetic_step, meas, 0.05, list(range(1, 8)))
        for k, cur in enumerate(chain, start=1):
            end = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.05, t_max=k * 0.05, record_every=every)).final
            assert np.max(np.abs(end.log_jacs)) > 0.0
            assert np.array_equal(end.thetas, cur.thetas) and np.array_equal(end.log_jacs, cur.log_jacs)

    @pytest.mark.parametrize("log_jac,n", [(False, 10), (False, 2000), (True, 64), (True, 4096)])
    def test_observe_then_step_another_state(self, log_jac, n):
        if log_jac:
            meas = measure(n, 1.3, 0.25)
            args, a = (meas.omegas, meas.weights, 1.3, 0.05, True), np.stack([meas.thetas, meas.log_jacs])
        else:
            ens = ensemble(n, 1.3, 0.25)
            args, a = (ens.freqs, np.full(n, 1.0 / n), 1.3, 0.05, False), ens.phases[None].copy()
        b = 1.5 * a + 0.5  # not a rotation of a: that would keep its stage-1 velocity
        fresh = ps.integrate.stepper(*args)[0](b).copy()
        step, observe = ps.integrate.stepper(*args)
        observe(a)
        assert np.array_equal(step(b), fresh)
        # a step of the observed object reuses its stage 1 and clears the
        # mark, so a later step of that object with other contents does not
        observe(b)
        step(b)
        b_again = b.copy()
        b[...] = a
        assert np.array_equal(step(b), ps.integrate.stepper(*args)[0](a))
        assert np.array_equal(step(b_again), fresh)


class TestBlowUp:
    @pytest.mark.parametrize("n", [10, 512])
    def test_raises_at_the_step_that_produced_it(self, n):
        # phases grow by about 1e307 per step and overflow after some steps
        ens = ps.OscillatorEnsemble(np.linspace(0.0, 1.0, n), np.tile([1e307, -1e307], n // 2))
        cfg = ps.SimConfig(dt=1.0, t_max=40.0, record_every=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ps.NonFiniteStateError) as want:
                drive_v070(*finite_step_v070(ens), ens.phases, cfg)
            with pytest.raises(ps.NonFiniteStateError) as got:
                ps.simulate(ens, cfg)
            meas = ps.PhaseMeasure.from_ensemble(ens)
            with pytest.raises(ps.NonFiniteStateError) as got_kinetic:
                ps.kinetic_simulate(meas, cfg)
        assert want.value.time > 2.0
        assert got.value.time == got_kinetic.value.time == want.value.time

    # The run tests finiteness once per block of record_every steps and replays
    # a block that ends non-finite. The phases overflow at step 18: inside the
    # first block, inside a later one, inside the run's last (shorter) block,
    # and on the run's last step.
    @pytest.mark.parametrize("every,t_max", [(25, 40.0), (7, 40.0), (25, 20.0), (25, 18.0)])
    @pytest.mark.parametrize("n", [10, 512])
    def test_time_of_the_first_non_finite_step_of_its_block(self, n, every, t_max):
        ens = ps.OscillatorEnsemble(np.linspace(0.0, 1.0, n), np.tile([1e307, -1e307], n // 2))
        cfg = ps.SimConfig(dt=1.0, t_max=t_max, record_every=every)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ps.NonFiniteStateError) as want:
                drive_v070(*finite_step_v070(ens), ens.phases, cfg)
            with pytest.raises(ps.NonFiniteStateError) as got:
                ps.simulate(ens, cfg)
            with pytest.raises(ps.NonFiniteStateError) as got_kinetic:
                ps.kinetic_simulate(ps.PhaseMeasure.from_ensemble(ens), cfg)
        assert want.value.time == 18.0
        assert got.value.time == got_kinetic.value.time == want.value.time

    @pytest.mark.parametrize("n", [10, 512])
    def test_finite_state_whose_row_sum_overflows_runs_on(self, n):
        # H = sum w theta omega overflows while every phase stays finite
        ens = ps.OscillatorEnsemble(np.full(n, 1e200), np.tile([1e200, 2e200], n // 2))
        cfg = ps.SimConfig(dt=0.01, t_max=0.5, record_every=25)
        with np.errstate(over="ignore"):
            traj = ps.simulate(ens, cfg)
        assert np.isinf(traj.h_series).all() and np.isfinite(traj.final.phases).all()
        assert traj.times[-1] == 0.5


class TestNoReferenceCycle:
    """Neither of stepper's closures refers to itself, so their buffers are
    freed with the last reference to them, not at the next cyclic collection."""

    @pytest.fixture(autouse=True)
    def no_cyclic_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize("log_jac,n", [(False, 10), (False, 512), (True, 64)])
    def test_used_stepper_dies_with_its_last_reference(self, log_jac, n):
        y = np.linspace(0.0, 1.0, n)[None]
        if log_jac:
            y = np.vstack([y, np.zeros((1, n))])
        step, observe = ps.integrate.stepper(np.linspace(-0.5, 0.5, n), np.full(n, 1.0 / n), 1.2, 0.05, log_jac)
        observe(y)
        step(step(step(y)))
        refs = weakref.ref(step), weakref.ref(observe)
        del step, observe
        assert [ref() for ref in refs] == [None, None]

    def test_runs_leave_no_stepper(self):
        cfg = ps.SimConfig(dt=0.05, t_max=1.0, record_every=3)
        ps.simulate(ensemble(10, 1.2, 0.25), cfg)
        ps.kinetic_simulate(measure(64, 1.2, 0.25), cfg)
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, types.FunctionType) and obj.__qualname__.startswith("stepper.<locals>.")]


class TestTrustedEnsembles:
    def test_constructor_still_validates_new_phases(self):
        # the internal paths skip the constructor's checks; it still makes them
        ens = ensemble(4, 1.2, 0.25)
        with pytest.raises(ValueError):
            ps.OscillatorEnsemble([0.0, np.nan, 1.0, 2.0], ens.freqs, ens.coupling)
        with pytest.raises(ValueError):
            ps.OscillatorEnsemble([0.0, 1.0], ens.freqs, ens.coupling)

    def test_rows_match_a_validated_rebuild(self):
        ens = ensemble(9, 1.2, 0.25)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.05, t_max=1.0, record_every=4))
        stepped = ps.step_rk4(ens, 0.05)
        for e in [*traj.states, stepped]:
            ref = ps.OscillatorEnsemble(e.phases, ens.freqs, ens.coupling)
            assert type(e) is ps.OscillatorEnsemble
            for f in dataclasses.fields(ps.OscillatorEnsemble):
                got, want = getattr(e, f.name), getattr(ref, f.name)
                assert np.array_equal(got, want) and type(got) is type(want), f.name
                assert np.asarray(got).dtype == np.asarray(want).dtype, f.name

    def test_rows_share_one_read_only_copy_of_freqs(self):
        ens = ensemble(9, 1.2, 0.25)
        traj = ps.simulate(ens, ps.SimConfig(dt=0.05, t_max=1.0, record_every=4))
        freqs = traj.states[0].freqs
        assert all(s.freqs is freqs for s in traj.states)
        assert freqs is not ens.freqs and np.array_equal(freqs, ens.freqs)
        with pytest.raises(ValueError):
            freqs[0] = 0.0
        ens.freqs[0] += 1.0  # the caller's array stays the caller's
        assert freqs[0] == ens.freqs[0] - 1.0
        stepped = ps.step_rk4(ens, 0.05)
        assert stepped.freqs is not ens.freqs and np.array_equal(stepped.freqs, ens.freqs)

    def test_step_rk4_blow_up_still_rejected(self):
        # the exact step, theta + dt*omega = 2e308, overflows
        ens = ps.OscillatorEnsemble([1e308, 1e308], [1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                ps.step_rk4(ens, 1.0)

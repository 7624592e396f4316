"""simulate against an exact reference for small finite runs: the z-form of
the model integrated by SciPy's DOP853 at rtol = atol = 1e-13
(reference.zform_phases, which imports no phasesync).

Each run has N = 3 or 12 oscillators at K = 1 with frequencies 1 + w, w = 0
(identical) or uniform on [-0.5, 0.5); the mean frequency 1 keeps every run
off the stationary stop. The gap is the largest distance on the circle
between a recorded state and the reference, over the rows at t = 0, 1, ..,
20. The bounds are 1.5 times v0.19.0's gaps; v0.20.0's are within 2e-15 of
those. A relative error of 1e-9 in RK4's second stage weight gives gaps of
2e-10 to 1.1e-9 at dt = 0.01, 5 times the bounds or more.
"""
import numpy as np
import pytest

import phasesync as ps
from reference import zform_phases

T_MAX = 20.0
SLACK = 1.5
# v0.19.0's gap at dt = 0.02 and 0.01, per (N, spread frequencies)
MEASURED_GAPS = {
    (3, False): (4.150e-10, 2.588e-11),
    (3, True): (5.787e-10, 3.621e-11),
    (12, False): (2.346e-09, 1.471e-10),
    (12, True): (9.580e-10, 5.989e-11),
}
FLOOR = 1e-11  # gaps below this may be the reference's or rounding's, not RK4's


def start(n, spread):
    ens = ps.seeded_ensemble(n, coupling=1.0, seed=11, freq_halfwidth=0.5 if spread else 0.0)
    return ps.OscillatorEnsemble(ens.phases, ens.freqs + 1.0, 1.0)


def gap(ens, dt):
    traj = ps.simulate(ens, ps.SimConfig(dt=dt, t_max=T_MAX, record_every=int(round(1.0 / dt))))
    assert traj.stopped_on == "t_max" and len(traj.times) == 21
    ref = zform_phases(ens.phases, ens.freqs, ens.coupling, traj.times)
    return float(np.max(np.abs(ps.wrap_angle(np.array([s.phases for s in traj.states]) - ref))))


def test_reference_is_free_rotation_at_zero_coupling():
    ens = start(12, True)
    times = np.linspace(0.0, T_MAX, 21)
    ref = zform_phases(ens.phases, ens.freqs, 0.0, times)
    exact = ens.phases[None] + times[:, None] * ens.freqs[None]
    assert np.max(np.abs(ps.wrap_angle(ref - exact))) <= 1e-11


@pytest.mark.parametrize("n,spread", sorted(MEASURED_GAPS))
def test_gap_within_bound_and_fourth_order(n, spread):
    ens = start(n, spread)
    gaps = [gap(ens, dt) for dt in (0.02, 0.01)]
    assert all(g <= SLACK * want for g, want in zip(gaps, MEASURED_GAPS[n, spread]))
    if gaps[1] > FLOOR:  # halving dt divides an RK4 gap by 2^4 = 16, to 25 %
        assert 12.0 <= gaps[0] / gaps[1] <= 20.0

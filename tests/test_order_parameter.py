"""The order parameter from the field's trig kernel against its definition.

weighted_order_parameter takes R and phi from the dots x = sum w cos(theta)
and y = sum w sin(theta) that field_into computes; the reference here is the
definition sum_j w_j exp(i theta_j), evaluated with numpy's complex exp.
"""
import numpy as np
import pytest

import phasesync as ps

NS = [3, 511, 512, 4096]  # both sides of HALF_ANGLE_MIN


def reference(weights, thetas):
    z = np.sum(weights * np.exp(1j * thetas))
    return abs(z), np.angle(z)


def clustered_phases(n, seed, center, spread):
    """Phases within 1.5 of center (R about 0.66), each shifted by a whole
    number of turns, from about -spread to about +spread."""
    psi = ps.rng.uniform(seed, n, center - 1.5, center + 1.5)
    turns = np.round(np.linspace(-spread, spread, n) / (2 * np.pi))
    return psi + 2 * np.pi * turns


def weights_of(n, seed, uniform):
    w = np.full(n, 1.0) if uniform else 1.0 + 0.5 * ps.rng.uniform(seed + 2, n, -1.0, 1.0)
    return w / w.sum()


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("spread", [0.0, 1e3])
@pytest.mark.parametrize("center", [0.3, np.pi])
def test_matches_complex_exp(n, uniform, spread, center):
    for seed in range(0, 30, 3):
        thetas = clustered_phases(n, seed, center, spread)
        assert spread == 0.0 or np.max(np.abs(thetas)) > 0.8 * spread
        w = weights_of(n, seed, uniform)
        r, phi = reference(w, thetas)
        op = ps.weighted_order_parameter(w, thetas)
        assert abs(op.r - r) <= 1e-15
        assert -np.pi <= op.phi < np.pi
        assert ps.circle_distance(op.phi, phi) <= 1e-15


@pytest.mark.parametrize("n", NS)
def test_incoherent_state_has_no_angle(n):
    thetas = 2 * np.pi * np.arange(n) / n + 0.7 + 2 * np.pi * 150  # equally spaced, unwrapped
    w = np.full(n, 1.0 / n)
    r, _ = reference(w, thetas)
    op = ps.weighted_order_parameter(w, thetas)
    assert r <= ps.R_MIN and op.r <= ps.R_MIN
    assert abs(op.r - r) <= 1e-15
    assert op.phi is None
    assert ps.order_parameter(ps.OscillatorEnsemble(thetas, np.zeros(n))).phi is None


@pytest.mark.parametrize("n", NS)
def test_order_parameter_is_the_equal_weight_case_bitwise(n):
    for seed in range(4):
        phases = clustered_phases(n, seed, 0.3, 1e3) if seed % 2 else ps.seeded_ensemble(n, seed=seed).phases
        ens = ps.OscillatorEnsemble(phases, np.zeros(n))
        got = ps.order_parameter(ens)
        want = ps.weighted_order_parameter(np.full(n, 1.0 / n), ens.phases)
        assert got.r == want.r and got.phi == want.phi


@pytest.mark.parametrize("n", NS)
def test_dots_are_the_fields(n):
    # field_into's dots, before the factor K, give the same order parameter
    thetas = clustered_phases(n, 4, 0.3, 10.0)
    w, omegas = weights_of(n, 4, False), np.linspace(-0.5, 0.5, n)
    c, s, v = np.empty((3, n))
    for coupling in (0.0, 1.7):
        _, x, y = ps.core.field_into(ps.core.trig_scale(n) * thetas, omegas, w, coupling, c, s, v)
        assert ps.OrderParameter.from_dots(x, y) == ps.weighted_order_parameter(w, thetas)
    assert np.array_equal(v, ps.field(thetas, omegas, w, 1.7, False))

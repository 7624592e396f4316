"""Reference forms that the library's fast paths are tested against: the
classical RK4 step and the O(N^2) pairwise vector field of the finite-N
model. Nothing in phasesync calls them."""
import numpy as np


def rk4_step(rate, y, dt):
    """One classical RK4 step of y' = rate(y); y is an array or a scalar."""
    h = 0.5 * dt
    k1 = rate(y)
    k2 = rate(y + h * k1)
    k3 = rate(y + h * k2)
    k4 = rate(y + dt * k3)
    return y + (2.0 * (k2 + k3) + k1 + k4) * (dt / 6.0)


def pairwise_rhs(ens):
    """O(N^2) form of the vector field: omega_i - (K/N) sum_j sin(theta_i - theta_j)."""
    diff = ens.phases[:, None] - ens.phases[None, :]
    return ens.freqs - (ens.coupling / ens.n) * np.sum(np.sin(diff), axis=1)

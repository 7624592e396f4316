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


def zform_phases(phases, freqs, coupling, times):
    """Phases (mod 2 pi) of the finite-N model at each of times, from its
    z-form z' = i omega z + (K/2)(Z - conj(Z) z^2), Z = mean z, z = exp(i
    theta), by SciPy's DOP853 at rtol = atol = 1e-13: an integrator and a
    form of the field that phasesync does not use."""
    from scipy.integrate import solve_ivp

    omegas, n = np.asarray(freqs, dtype=float), len(phases)

    def rate(t, u):
        z = u[:n] + 1j * u[n:]
        dz = 1j * omegas * z + 0.5 * coupling * (z.mean() - np.conj(z.mean()) * z * z)
        return np.concatenate([dz.real, dz.imag])

    z0 = np.exp(1j * np.asarray(phases, dtype=float))
    sol = solve_ivp(rate, (0.0, times[-1]), np.concatenate([z0.real, z0.imag]), method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-13)
    assert sol.success
    return np.angle(sol.y[:n] + 1j * sol.y[n:]).T

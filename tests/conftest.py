import numpy as np
import pytest

import diamondfwm as dfm


@pytest.fixture(scope="session")
def fig3():
    return dfm.preset("fig3")


@pytest.fixture(scope="session")
def fig4():
    return dfm.preset("fig4")


@pytest.fixture(scope="session")
def fig3_small(fig3):
    """fig3 operating point on a coarser spatial grid, for cheap tests."""
    from dataclasses import replace
    return replace(fig3, medium=replace(fig3.medium, n_z=400))


def rk4_step(rhs, y, dt):
    """One classical RK4 step of dy/dt = rhs(y)."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_integrate(rhs, y0, t_end, dt):
    """Plain fixed-step RK4 time integrator used by test oracles."""
    y = np.asarray(y0, dtype=complex)
    for _ in range(int(round(t_end / dt))):
        y = rk4_step(rhs, y, dt)
    return y


def rk4_integrate_affine(rhs, y0, t_end, dt):
    """rk4_integrate for a right-hand side that is affine in the real and
    imaginary parts of y, in O(log N) matrix products instead of N steps.

    One RK4 step is then an affine map of the real coordinates,
    y -> R y + r.  It is probed by stepping from zero (r) and from each
    basis vector (r + the columns of R), and N steps are the N-th power
    of the augmented matrix [[R, r], [0, 1]] by repeated squaring: the
    same method, step and end time, up to rounding.
    """
    y0 = np.asarray(y0, dtype=complex)
    dim = y0.size

    def real(y):
        return np.concatenate([y.real, y.imag])

    def cplx(v):
        return v[:dim] + 1j * v[dim:]

    r = real(rk4_step(rhs, np.zeros(dim, complex), dt))
    step = np.eye(2 * dim + 1)
    for k, e in enumerate(np.eye(2 * dim)):
        step[:-1, k] = real(rk4_step(rhs, cplx(e), dt)) - r
    step[:-1, -1] = r
    n = int(round(t_end / dt))
    return cplx((np.linalg.matrix_power(step, n) @ np.append(real(y0), 1.0))[:-1])

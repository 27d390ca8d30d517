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


def rk4_integrate(rhs, y0, t_end, dt):
    """Plain fixed-step RK4 time integrator used by test oracles."""
    y = np.asarray(y0, dtype=complex)
    n = int(round(t_end / dt))
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y

"""Deterministic reverse samplers over the probability-flow ODE.

The Euler integrator follows the simplified right-hand side only; nothing
here touches the basis, so rank-deficient noise models sample fine.  Grids
run from T down to the terminal knot eps_t = T/1000 because the RHS divides
by sigma(t) and is singular at t = 0.  A classical 4th-order integrator over
the same field serves as the accuracy oracle in tests and verify suites.
"""

from __future__ import annotations

import numpy as np

from .denoisers import Denoiser
from .fields import Field
from .process import DiffusionProcess

TERMINAL_FRACTION = 1e-3  # eps_t = T * this
GRID_SCHEMES = ("uniform", "quadratic")  # make_time_grid's spacings


def make_time_grid(T: float, steps: int, scheme: str = "uniform") -> np.ndarray:
    """Descending knots T = t_N > ... > t_0 = T/1000; steps+1 entries.

    "uniform" spaces knots evenly; "quadratic" densifies spacing toward the
    terminal knot.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if T <= 0:
        raise ValueError("horizon T must be positive")
    eps_t = T * TERMINAL_FRACTION
    if scheme == "uniform":
        return np.linspace(T, eps_t, steps + 1)
    if scheme == "quadratic":
        u = np.linspace(1.0, 0.0, steps + 1)
        return eps_t + (T - eps_t) * u * u
    raise ValueError(f"unknown grid scheme {scheme!r}")


def _check_grid(grid: np.ndarray, T: float) -> np.ndarray:
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid needs at least two knots")
    if not np.all(np.diff(grid) < 0):
        raise ValueError("grid must be strictly decreasing")
    if grid[-1] <= 0 or grid[0] > T:
        raise ValueError("grid endpoints must lie inside (0, T]")
    return grid


def euler_trajectory(p: DiffusionProcess, den: Denoiser, x_init: np.ndarray,
                     grid) -> np.ndarray:
    """Euler states of n trajectories down the grid, x_init first.

    x_init holds (n, d) flat start states; the result is (len(grid), n, d).
    """
    grid = _check_grid(grid, p.schedule.T)
    states = np.empty((grid.size,) + np.shape(x_init))
    states[0] = x_init
    for i in range(grid.size - 1):
        t = float(grid[i])
        rhs = p.pfode_rhs(den, t, states[i])
        states[i + 1] = states[i] + (float(grid[i + 1]) - t) * rhs
        if not np.all(np.isfinite(states[i + 1])):
            raise RuntimeError(f"non-finite state after the step at t={t}")
    return states


def sample_euler(p: DiffusionProcess, den: Denoiser, x_init: Field,
                 grid, final_denoise: bool = False) -> Field:
    """Euler walk down the grid: x <- x + (t_next - t) * rhs(x, t).

    x_init is used as given: restoration mode passes the degraded
    observation itself, round-trip mode passes a forward sample at the top
    knot.  With final_denoise the returned state is one exact denoising jump
    D(x; t_last) instead of x.
    """
    x = euler_trajectory(p, den, x_init.flat()[None, :], grid)[-1]
    if final_denoise:
        x = den.denoise(x, float(grid[-1]))
    return Field(x[0], shape=x_init.shape)


def rk4_step(rhs, x, h, stages):
    """One classical RK4 step of size h from x.

    rhs(stage, x) is evaluated at the step's start, midpoint and end, which
    the three entries of stages name: the times t, t + h/2 and t + h, or the
    keys the caller's rhs looks its coefficients up by.
    """
    start, mid, end = stages
    k1 = rhs(start, x)
    k2 = rhs(mid, x + 0.5 * h * k1)
    k3 = rhs(mid, x + 0.5 * h * k2)
    k4 = rhs(end, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def sample_reference(p: DiffusionProcess, den: Denoiser, x_init: np.ndarray,
                     steps: int) -> np.ndarray:
    """Classical RK4 endpoints over [T, T/1000]; the test-side accuracy oracle.

    x_init holds (n, d) flat start states; the result is their (n, d)
    endpoints, each row walked independently as in euler_trajectory.
    Integrates the same right-hand side in the reparametrized time
    t = eps_t + (T - eps_t) u^2 with uniform u steps.  Near the terminal knot
    the RHS scale grows like sigma'/sigma ~ 1/(2t); the quadratic map keeps
    the solution smooth in u, which a fixed-step 4th-order integrator needs
    to actually deliver oracle accuracy.
    """
    if steps < 4:
        raise ValueError("reference integrator needs at least 4 steps")
    T = p.schedule.T
    eps_t = T * TERMINAL_FRACTION
    span = T - eps_t

    def rhs_u(u: float, x: np.ndarray) -> np.ndarray:
        t = min(eps_t + span * u * u, T)
        return (2.0 * span * u) * p.pfode_rhs(den, t, x)

    us = np.linspace(1.0, 0.0, steps + 1)
    x = np.asarray(x_init, dtype=np.float64)
    for i in range(steps):
        u = float(us[i])
        h = float(us[i + 1]) - u
        x = rk4_step(rhs_u, x, h, (u, u + 0.5 * h, u + h))
    return x


def write_trajectory_csv(times, states, path) -> None:
    """CSV rows (t, state coordinates...) of one (K, d) trajectory; floats
    print as repr, which round-trips exactly."""
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x{i}" for i in range(states.shape[1])) + "\n")
        for t, row in zip(times, states):
            fh.write(repr(float(t)) + "," + ",".join(map(repr, row.tolist()))
                     + "\n")

"""Deterministic reverse samplers over the probability-flow ODE.

The Euler integrator follows the simplified right-hand side only; nothing
here touches the basis, so rank-deficient noise models sample fine.  Grids
run from T down to the terminal knot eps_t = T/1000 because the RHS divides
by sigma(t) and is singular at t = 0.  A classical 4th-order integrator over
the same field serves as the accuracy oracle in tests and verify suites.

The flow's coefficients depend on the knot alone, never on the state, so
each walk tabulates them for all its knots once (DiffusionProcess.knot_table,
one schedule evaluation) and each step looks its knot up in that table.
"""

from __future__ import annotations

import numpy as np

from .denoisers import Denoiser
from .fields import cast, write_csv
from .process import DiffusionProcess
from .schedules import HORIZON

TERMINAL_FRACTION = 1e-3  # eps_t = T * this
GRID_STEPS = (int, 1, None)  # make_time_grid's steps
GRID_SCHEME = (("uniform", "quadratic"), None, None)  # and its spacings
REFERENCE_STEPS = (int, 4, None)  # sample_reference's steps


def make_time_grid(T: float, steps: int, scheme: str = "uniform") -> np.ndarray:
    """Descending knots T = t_N > ... > t_0 = T/1000; steps+1 entries.

    "uniform" spaces knots evenly; "quadratic" densifies spacing toward the
    terminal knot.
    """
    T = cast(T, *HORIZON, "T")
    steps = cast(steps, *GRID_STEPS, "steps")
    eps_t = T * TERMINAL_FRACTION
    if cast(scheme, *GRID_SCHEME, "scheme") == "uniform":
        return np.linspace(T, eps_t, steps + 1)
    u = np.linspace(1.0, 0.0, steps + 1)
    return eps_t + (T - eps_t) * u * u


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
    p.check_rows(x_init, "start states")
    table = p.knot_table(grid[:-1])
    states = np.empty((grid.size,) + np.shape(x_init))
    states[0] = x_init
    for k, h in enumerate(np.diff(grid).tolist()):
        states[k + 1] = states[k] + h * p.pfode_rhs_at(den, table, k, states[k])
        if not np.isfinite(states[k + 1]).all():
            raise RuntimeError(f"non-finite state after the step at "
                               f"t={float(grid[k])}")
    return states


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
    steps = cast(steps, *REFERENCE_STEPS, "steps")
    p.check_rows(x_init, "start states")
    T = p.schedule.T
    eps_t = T * TERMINAL_FRACTION
    span = T - eps_t
    us = np.linspace(1.0, 0.0, steps + 1)
    start = us[:-1]
    h = us[1:] - start
    # knots i, steps + i and 2 steps + i are step i's start u, midpoint
    # u + h/2 and end u + h; an end can differ from the next start by an ulp
    u = np.concatenate([start, start + 0.5 * h, start + h])
    table = p.knot_table(np.minimum(eps_t + span * u * u, T))
    dt_du = 2.0 * span * u

    def rhs_u(k: int, x: np.ndarray) -> np.ndarray:
        return dt_du[k] * p.pfode_rhs_at(den, table, k, x)

    x = np.asarray(x_init, dtype=np.float64)
    for i, h_i in enumerate(h.tolist()):
        x = rk4_step(rhs_u, x, h_i, (i, steps + i, 2 * steps + i))
    return x


def write_trajectory_csv(times, states, path) -> None:
    """CSV rows (t, state coordinates...) of one (K, d) trajectory."""
    write_csv(path, ["t"] + [f"x{i}" for i in range(states.shape[1])],
              ([float(t)] + row.tolist() for t, row in zip(times, states)))

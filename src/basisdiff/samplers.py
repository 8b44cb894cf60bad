"""Deterministic reverse samplers over the probability-flow ODE.

The Euler integrator follows the simplified right-hand side only; nothing
here touches the basis, so rank-deficient noise models sample fine.  Grids
run from T down to the terminal knot eps_t = T * TERMINAL_FRACTION = T/1000
because the RHS divides by sigma(t) and is singular at t = 0.  make_time_grid
builds every grid a run walks; a classical 4th-order integrator over the same
field walks knots geometric in t as the accuracy oracle in tests and verify
suites.

The flow's coefficients depend on the knot alone, never on the state, so
each walk tabulates them for all its knots once (DiffusionProcess.knot_table,
one schedule evaluation) and each step looks its knot up in that table.
"""

from __future__ import annotations

import numpy as np

from .denoisers import Denoiser
from .fields import cast, write_csv
from .process import DiffusionProcess
from .schedules import HORIZON, TERMINAL_FRACTION

GRID_STEPS = (int, 1, None)  # make_time_grid's steps
GRID_SCHEME = (("uniform", "quadratic"), None, None)  # and its spacings
REFERENCE_STEPS = (int, 4, None)  # sample_reference's steps


def make_time_grid(T: float, steps: int, scheme: str = "uniform") -> np.ndarray:
    """Descending knots T = t_N > ... > t_0 = T/1000; steps+1 entries.

    "uniform" spaces knots evenly; "quadratic" densifies spacing toward the
    terminal knot: t = eps_t + (T - eps_t) u^2 over uniform u from 1 to 0.
    Either grid starts on T exactly and stops on eps_t exactly.
    """
    T = cast(T, *HORIZON, "T")
    steps = cast(steps, *GRID_STEPS, "steps")
    eps_t = T * TERMINAL_FRACTION
    if cast(scheme, *GRID_SCHEME, "scheme") == "uniform":
        return np.linspace(T, eps_t, steps + 1)
    u = np.linspace(1.0, 0.0, steps + 1)
    grid = eps_t + (T - eps_t) * u * u
    grid[0] = T  # eps_t + (T - eps_t) can round an ulp above T
    return grid


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


def sample_reference(p: DiffusionProcess, den: Denoiser, x_init: np.ndarray,
                     steps: int) -> np.ndarray:
    """Classical RK4 endpoints over [T, T/1000]; the test-side accuracy oracle.

    x_init holds (n, d) flat start states; the result is their (n, d)
    endpoints, each row walked independently as in euler_trajectory.
    Walks the same right-hand side in lambda = log t, on 2 steps + 1 knots
    geometric in t from T down to the terminal knot: step i runs from knot
    2i through its midpoint knot 2i + 1 to knot 2i + 2.  Near the terminal
    knot the RHS scale grows like sigma'/sigma ~ 1/(2t), so in lambda it
    stays bounded and the solution smooth, which a fixed-step 4th-order
    integrator needs to actually deliver oracle accuracy.  log t is nearly
    DPM-Solver's log sigma but needs no inverse of the schedule.  No run
    but this oracle walks these knots, so they are no make_time_grid scheme.
    """
    steps = cast(steps, *REFERENCE_STEPS, "steps")
    p.check_rows(x_init, "start states")
    T = p.schedule.T
    # geomspace sets both end knots exactly: T and eps_t
    times = np.geomspace(T, T * TERMINAL_FRACTION, 2 * steps + 1)
    table = p.knot_table(times)
    # dt/dlambda = t at each knot, times a step's log(eps_t/T)/steps in lambda
    gain = (np.log(TERMINAL_FRACTION) / steps) * times

    def rhs(j: int, x: np.ndarray) -> np.ndarray:
        return gain[j] * p.pfode_rhs_at(den, table, j, x)

    x = np.asarray(x_init, dtype=np.float64)
    for j in range(0, 2 * steps, 2):
        k1 = rhs(j, x)
        k2 = rhs(j + 1, x + 0.5 * k1)
        k3 = rhs(j + 1, x + 0.5 * k2)
        k4 = rhs(j + 2, x + k3)
        x = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return x


def write_trajectory_csv(times, states, path) -> None:
    """CSV rows (t, state coordinates...) of one (K, d) trajectory."""
    write_csv(path, ["t"] + [f"x{i}" for i in range(states.shape[1])],
              ([float(t)] + row.tolist() for t, row in zip(times, states)))

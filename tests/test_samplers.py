import re

import numpy as np
import pytest

from basisdiff.bases import BasisSet, pixel_basis
from basisdiff.denoisers import (ConstantDenoiser, DiracDataset,
                                 DiracMixtureDenoiser, PreconditionedDenoiser,
                                 TinyNetwork)
from basisdiff.fields import Field, Rng
from basisdiff.process import DiffusionProcess
from basisdiff.samplers import (TERMINAL_FRACTION, euler_trajectory,
                                make_time_grid, rk4_step, sample_reference,
                                write_trajectory_csv)
from basisdiff.schedules import Schedule, make_ddpm_schedule, make_vp_schedule


def _process(d=2):
    return DiffusionProcess(make_vp_schedule(), pixel_basis((d,)), 0.0)


def test_uniform_grid_knots():
    grid = make_time_grid(100.0, 5)
    assert grid[0] == 100.0 and grid[-1] == pytest.approx(0.1, rel=1e-15)
    assert np.allclose(grid, [100.0, 80.02, 60.04, 40.06, 20.08, 0.1],
                       rtol=1e-12)
    assert np.array_equal(make_time_grid(100.0, 1),
                          np.linspace(100.0, 0.1, 2))


def test_quadratic_grid_shape():
    grid = make_time_grid(100.0, 8, scheme="quadratic")
    assert grid.size == 9
    assert grid[0] == pytest.approx(100.0, rel=1e-15)
    assert grid[-1] == pytest.approx(0.1, rel=1e-15)
    assert np.all(np.diff(grid) < 0)
    u = np.linspace(1.0, 0.0, 9)
    assert np.allclose(grid, 0.1 + 99.9 * u * u, rtol=1e-12)
    # quadratic spacing concentrates knots near the terminal time
    assert grid[-2] - grid[-1] < grid[0] - grid[1]


def test_grid_argument_errors():
    with pytest.raises(ValueError):
        make_time_grid(100.0, 0)
    with pytest.raises(ValueError):
        make_time_grid(0.0, 5)
    with pytest.raises(ValueError):
        make_time_grid(100.0, 5, scheme="cubic")


def test_grid_validation_on_walk():
    p = _process()
    den = ConstantDenoiser(Field([0.0, 0.0]))
    x = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError):
        euler_trajectory(p, den, x, [50.0])  # one knot
    with pytest.raises(ValueError):
        euler_trajectory(p, den, x, [50.0, 60.0])  # increasing
    with pytest.raises(ValueError):
        euler_trajectory(p, den, x, [120.0, 50.0])  # beyond horizon
    with pytest.raises(ValueError):
        euler_trajectory(p, den, x, [50.0, 0.0])  # terminal at the singularity


def test_trajectory_bookkeeping():
    p = _process()
    den = ConstantDenoiser(Field([0.0, 0.0]))
    x = np.array([[1.0, -1.0], [0.5, 2.0], [-3.0, 0.0]])
    grid = make_time_grid(100.0, 7)
    states = euler_trajectory(p, den, x, grid)
    assert states.shape == (8, 3, 2)
    assert np.array_equal(states[0], x)
    for i in range(3):
        end = euler_trajectory(p, den, x[i][None, :], grid)[-1, 0]
        assert np.array_equal(end, states[-1, i])


def test_terminal_fraction_constant():
    assert TERMINAL_FRACTION == 1e-3


def test_euler_matches_contraction_closed_form():
    # with D == y and unit scale the flow obeys x(t) - y proportional to
    # sigma(t), so the terminal state is y + (x_T - y) sigma(eps)/sigma(T)
    p = _process()
    sched = p.schedule
    y = np.array([0.2, -0.1])
    x_top = np.array([1.5, -2.0])
    ratio = sched.sigma(0.1) / sched.sigma(100.0)
    exact = y + (x_top - y) * ratio
    out = euler_trajectory(p, ConstantDenoiser(y), x_top[None, :],
                           make_time_grid(100.0, 10_000))[-1, 0]
    assert np.max(np.abs(out - exact)) < 1e-4


def test_reference_integrator_is_sharp_on_the_closed_form():
    p = _process()
    sched = p.schedule
    y = Field([0.2, -0.1])
    x_top = Field([1.5, -2.0])
    ratio = sched.sigma(0.1) / sched.sigma(100.0)
    exact = y.values + (x_top.values - y.values) * ratio
    out = sample_reference(p, ConstantDenoiser(y), x_top.values[None, :], 1000)
    assert out.shape == (1, 2)
    assert np.max(np.abs(out[0] - exact)) < 1e-8


def test_reference_is_deterministic():
    p = _process()
    den = ConstantDenoiser(Field([0.3, 0.4]))
    x = np.array([[2.0, -1.0]])
    a = sample_reference(p, den, x, 64)
    b = sample_reference(p, den, x, 64)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_reference(p, den, x, 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_state_aborts():
    # finite inputs whose very first update overflows: |dt * rhs| crosses the
    # float ceiling even though the rhs itself is representable
    p = _process()
    den = ConstantDenoiser(Field([-1.7e308, -1.7e308]))
    x = np.array([[1.7e308, 1.7e308]])
    with pytest.raises(RuntimeError, match="non-finite"):
        euler_trajectory(p, den, x, [100.0, 0.001])


def test_write_trajectory_csv(tmp_path):
    path = tmp_path / "traj.csv"
    times = np.array([100.0, 0.1, 0.05, 0.01])
    rows = np.array([[1.0, 2.0], [0.5, 0.25], [-0.0, 5e-324],
                     [0.1 + 0.2, 1e16]])
    # one trajectory of a stacked (K, n, d) walk, as the sample command
    # passes it: a strided view
    walk = np.stack([np.zeros_like(rows), rows], axis=1)
    write_trajectory_csv(times, walk[:, 1], path)
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0] == "t,x0,x1"
    assert lines[1] == "100.0,1.0,2.0"
    assert lines[2] == "0.1,0.5,0.25"
    for line, t, row in zip(lines[1:], times, rows):
        assert line == ",".join(repr(float(v)) for v in [t, *row])
    assert lines[3] == "0.05,-0.0,5e-324"
    assert lines[4] == "0.01,0.30000000000000004,1e+16"


def test_reference_walks_stacked_rows_independently():
    # a mixture denoiser over a non-orthogonal basis couples the coordinates
    # of a row, never two rows
    rows = np.array([[1.0, 0.0], [0.3, 1.0]])
    p = DiffusionProcess(make_vp_schedule(), BasisSet((2,), rows), 0.0)
    pts = [Field([-1.0, 0.5]), Field([1.2, -0.3]), Field([0.2, 1.5])]
    den = DiracMixtureDenoiser(DiracDataset(pts), p)
    x = np.array([[0.9, -1.4], [-2.0, 0.3], [0.1, 1.1]])
    stacked = sample_reference(p, den, x, 64)
    assert stacked.shape == (3, 2)
    for i in range(3):
        one = sample_reference(p, den, x[i:i + 1], 64)
        np.testing.assert_allclose(stacked[i], one[0], rtol=1e-12, atol=0.0)


def _mixture(rows, d, sched=None):
    p = DiffusionProcess(sched or make_vp_schedule(),
                         BasisSet((d,), elements=np.asarray(rows)), 2.0)
    pts = Rng(31).standard_normal((3, d))
    return p, DiracMixtureDenoiser(DiracDataset([Field(y) for y in pts]), p)


def _denoisers(sched):
    """(name, process, denoiser) over every denoiser kind a walk meets."""
    full = _mixture([[1.0, 0.0], [0.3, 1.0]], 2, sched)
    # two rows span 2 of 3 directions: the out-of-range weighing runs
    deficient = _mixture([[1.0, 0.2, 0.0], [0.0, 1.0, 0.4]], 3, sched)
    p = full[0]
    net = PreconditionedDenoiser(TinyNetwork([3, 8, 2], Rng(5)), p,
                                 "predict-noise")
    return [("constant", p, ConstantDenoiser(Field([0.4, -0.2]))),
            ("mixture", *full), ("mixture-rank-deficient", *deficient),
            ("network", p, net)]


def _euler_loop(p, den, x, grid):
    """The Euler walk as one pfode_rhs call per knot."""
    for t, t_next in zip(grid[:-1].tolist(), grid[1:].tolist()):
        x = x + (t_next - t) * p.pfode_rhs(den, t, x)
    return x


def _reference_loop(p, den, x, steps):
    """sample_reference as one pfode_rhs call per RK4 stage time."""
    T = p.schedule.T
    eps_t = T * TERMINAL_FRACTION
    span = T - eps_t

    def rhs_u(u, x):
        return (2.0 * span * u) * p.pfode_rhs(den, min(eps_t + span * u * u, T), x)

    us = np.linspace(1.0, 0.0, steps + 1).tolist()
    for u, u_next in zip(us[:-1], us[1:]):
        h = u_next - u
        x = rk4_step(rhs_u, x, h, (u, u + 0.5 * h, u + h))
    return x


@pytest.mark.parametrize("make_schedule", [make_vp_schedule, make_ddpm_schedule])
def test_table_walks_match_a_loop_over_pfode_rhs(make_schedule):
    # the table takes the schedule's array path and the loop its float path,
    # which agree to a few ulp; every other operation is the same, so the
    # O(1) endpoints agree to within tens of ulp
    for name, p, den in _denoisers(make_schedule()):
        d = p.basis.elements().shape[1]
        x = Rng(7).standard_normal((3, d))
        grid = make_time_grid(p.schedule.T, 40, "quadratic")
        np.testing.assert_allclose(euler_trajectory(p, den, x, grid)[-1],
                                   _euler_loop(p, den, x, grid),
                                   rtol=1e-14, atol=1e-14, err_msg=name)
        np.testing.assert_allclose(sample_reference(p, den, x, 32),
                                   _reference_loop(p, den, x, 32),
                                   rtol=1e-14, atol=1e-14, err_msg=name)


def test_walks_evaluate_the_schedule_once(monkeypatch):
    # every Schedule method evaluates through _eval; a walk makes one array
    # call for all its knots, not one call per step
    calls = []
    parts = Schedule._eval

    def counting(sched, t):
        calls.append(np.shape(t))
        return parts(sched, t)

    monkeypatch.setattr(Schedule, "_eval", counting)
    p, mix = _mixture([[1.0, 0.0], [0.3, 1.0]], 2)
    x = np.array([[0.9, -1.4], [-0.3, 0.2]])
    for den in (ConstantDenoiser(Field([0.4, -0.2])), mix):
        calls.clear()
        euler_trajectory(p, den, x, make_time_grid(p.schedule.T, 1000))
        assert calls == [(1000,)]
        calls.clear()
        sample_reference(p, den, x, 4096)
        assert calls == [(3 * 4096,)]


def _walks(p, den, x):
    grid = make_time_grid(p.schedule.T, 10)
    for walk in (lambda: euler_trajectory(p, den, x, grid),
                 lambda: sample_reference(p, den, x, 8)):
        with pytest.raises(ValueError,
                           match=re.escape(f"(n, 2) rows, got shape {x.shape}")):
            walk()


def test_walks_refuse_a_one_dimensional_start():
    p, mix = _mixture([[1.0, 0.0], [0.3, 1.0]], 2)
    for den in (ConstantDenoiser(Field([0.4, -0.2])), mix):
        _walks(p, den, np.array([0.9, -1.4]))


def test_walks_refuse_a_three_dimensional_start():
    p, mix = _mixture([[1.0, 0.0], [0.3, 1.0]], 2)
    for den in (ConstantDenoiser(Field([0.4, -0.2])), mix):
        _walks(p, den, np.array([[[0.9, -1.4]]]))


def test_walks_refuse_a_start_of_another_width():
    p, mix = _mixture([[1.0, 0.0], [0.3, 1.0]], 2)
    _walks(p, mix, np.array([[0.9, -1.4, 0.3]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_walks_refuse_a_non_finite_start(bad):
    # refused up front by name, not blamed on the first step or walked into
    # NaN endpoints
    p, mix = _mixture([[1.0, 0.0], [0.3, 1.0]], 2)
    x = np.array([[0.9, -1.4], [bad, 0.2]])
    grid = make_time_grid(p.schedule.T, 10)
    for den in (ConstantDenoiser(Field([0.4, -0.2])), mix):
        for walk in (lambda: euler_trajectory(p, den, x, grid),
                     lambda: sample_reference(p, den, x, 8)):
            with pytest.raises(ValueError, match="start states must be finite"):
                walk()

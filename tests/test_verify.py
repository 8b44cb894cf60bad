import dataclasses
import inspect
import json
import warnings

import numpy as np
import pytest

from basisdiff import verify
from basisdiff.process import DiffusionProcess
from basisdiff.verify import (CheckResult, SUITE_NAMES, SuiteReport, _lower,
                              _upper, run_suite)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("vibes", seed=7)


def test_check_helpers():
    assert _upper("a", 0.5, 1.0, 7).passed
    assert not _upper("a", 2.0, 1.0, 7).passed
    assert _lower("b", 2.0, 1.0, 7).passed
    assert not _lower("b", 0.5, 1.0, 7).passed


def test_report_pass_logic_and_schema():
    good = CheckResult("g", True, 0.0, 1.0, 7)
    bad = CheckResult("b", False, 2.0, 1.0, 7)
    assert SuiteReport("x", 7, (good,)).passed
    assert not SuiteReport("x", 7, (good, bad)).passed
    rec = SuiteReport("x", 7, (good, bad)).as_dict()
    assert rec["suite"] == "x" and rec["seed"] == 7
    assert rec["passed"] is False and rec["n_checks"] == 2
    assert rec["checks"][0] == {"name": "g", "passed": True, "value": 0.0,
                                "threshold": 1.0, "seed": 7}


@pytest.mark.parametrize("suite", ["coefficients", "score", "cancellation",
                                   "marginal"])
def test_fast_suites_pass(suite):
    report = run_suite(suite, seed=7)
    assert report.passed, report.to_json()
    assert len(report.checks) >= 1


def test_reports_are_reproducible():
    a = run_suite("cancellation", seed=7).to_json()
    b = run_suite("cancellation", seed=7).to_json()
    assert a == b
    assert json.loads(a)["suite"] == "cancellation"


def test_aggregate_report_covers_every_suite():
    # tiny-seed spot check of the aggregation plumbing only; the full run at
    # the documented seed lives in the acceptance tests
    reports = [run_suite(name, seed=3) for name in SUITE_NAMES[:2]]
    agg_counts = sum(len(r.checks) for r in reports)
    assert agg_counts == len(reports[0].checks) + len(reports[1].checks)
    for r in reports:
        assert r.seed == 3


def test_coefficient_suite_keeps_ten_thousand_rk4_steps():
    params = inspect.signature(verify._checks_coefficients).parameters
    assert params["n_steps"].default == 10_000


def _affine_walk_case(seed, zero_linear):
    # a random diagonal-affine ODE dx/dt = a x + b on (3, 2) states, tabulated
    # like the coefficient suite's at (stage, step); the step count is no
    # multiple of the block, and two outputs fall on a block's final step
    block = verify._RK4_BLOCK
    n = 2 * block + 37
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.5e-3, 1.5e-3, n)
    a = np.zeros((3, n, 3, 1)) if zero_linear else rng.normal(size=(3, n, 3, 1))
    b = rng.normal(size=(3, n, 3, 2))

    def rhs(ki, x):
        return a[ki] * x + b[ki]

    def lin(ki, x):
        return a[ki] * x

    last = [17, block - 1, 2 * block - 1, n - 1]
    return rhs, lin, rng.normal(size=(3, 2)), h, last


def _per_step_walk(rhs, x, h, last):
    out = []
    for i in range(h.size):
        x = verify.rk4_step(rhs, x, h[i], ((0, i), (1, i), (2, i)))
        if i in last:
            out.append(x)
    return out


@pytest.mark.parametrize("zero_linear", [False, True])
def test_blocked_walk_matches_per_step_walk(zero_linear):
    # with no linear part every gain is exactly 1, so the walks agree bitwise
    rhs, lin, x, h, last = _affine_walk_case(5, zero_linear)
    blocked = verify._rk4_walk(rhs, lin, x, h, last)
    stepped = _per_step_walk(rhs, x, h, last)
    assert len(blocked) == len(stepped) == len(last)
    for got, want in zip(blocked, stepped):
        if zero_linear:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_coefficient_suite_keeps_every_step(monkeypatch):
    # both moment ODEs walk one grid, and each walk's rk4_step calls, linear
    # part and full right-hand side alike, cover every step of it; a speedup
    # must not come from a shorter walk
    grids, sizes = [], {}
    grid, step = verify._rk4_grid, verify.rk4_step

    def record_grid(knots, n_steps):
        out = grid(knots, n_steps)
        grids.append((n_steps, out[0].size))
        return out

    def record_step(rhs, x, h, stages):
        key = rhs.__qualname__
        sizes[key] = sizes.get(key, 0) + np.shape(h)[0]
        return step(rhs, x, h, stages)

    monkeypatch.setattr(verify, "_rk4_grid", record_grid)
    monkeypatch.setattr(verify, "rk4_step", record_step)
    assert run_suite("coefficients", seed=7).passed
    assert [n for n, _ in grids] == [10_000]
    steps = grids[0][1]
    local = "_integrate_moment_odes.<locals>."
    assert sizes == {local + name: steps for name in
                     ("mean_rhs", "mean_lin", "var_rhs", "var_lin")}
    assert steps >= 10_000


@pytest.mark.parametrize("scaled", [None, "f", "g", "phi"])
def test_coefficient_suite_integrates_the_library_coefficients(monkeypatch,
                                                               scaled):
    # criterion 1 takes f, g and phi from schedules.sde_coefficients, one
    # array call per case on the walk's stage times, so the suite fails when
    # any one of them is off by 1 %
    real, calls = verify.sde_coefficients, []

    def coefficients(sched, eta, basis_sum, t):
        calls.append(np.size(t))
        c = real(sched, eta, basis_sum, t)
        if scaled is None:
            return c
        return dataclasses.replace(c, **{scaled: 1.01 * getattr(c, scaled)})

    monkeypatch.setattr(verify, "sde_coefficients", coefficients)
    report = run_suite("coefficients", seed=7)
    assert len(calls) == len(report.checks) // 2 == 5
    # three stages per step, less the one at t = 0
    assert all(n >= 3 * 10_000 - 1 for n in calls)
    assert report.passed == (scaled is None)


def test_edm_reduction_checks_the_library_forward_kernel(monkeypatch):
    # criterion 5's forward-kernel check draws through
    # DiffusionProcess.forward_sample, so 10 % more noise there fails it
    real = DiffusionProcess.forward_sample

    def louder(self, x0, t, rng):
        mean = self.schedule.s(t) * x0
        return mean + 1.1 * (real(self, x0, t, rng) - mean)

    monkeypatch.setattr(DiffusionProcess, "forward_sample", louder)
    report = run_suite("edm-reduction", seed=7)
    assert [c.name for c in report.checks if not c.passed] == [
        "edm-reduction/forward-kernel-z"]


def test_sampler_suite_keeps_its_walks(monkeypatch):
    # (integrator, steps, rows, denoiser) of every walk the suite makes; a
    # speedup must not come from shorter or fewer walks
    from basisdiff import samplers

    walks = []
    euler, reference = samplers.euler_trajectory, samplers.sample_reference

    def record_euler(p, den, x_init, grid):
        walks.append(("euler", len(grid) - 1, len(x_init), type(den).__name__))
        return euler(p, den, x_init, grid)

    def record_reference(p, den, x_init, steps):
        walks.append(("reference", steps, len(x_init), type(den).__name__))
        return reference(p, den, x_init, steps)

    monkeypatch.setattr(samplers, "euler_trajectory", record_euler)
    monkeypatch.setattr(verify, "euler_trajectory", record_euler)
    monkeypatch.setattr(verify, "sample_reference", record_reference)
    assert run_suite("sampler", seed=7).passed
    assert sorted(walks) == sorted([
        ("reference", 4096, 2, "DiracMixtureDenoiser"),
        ("reference", 1000, 1, "ConstantDenoiser"),
        ("reference", 500, 1, "ConstantDenoiser"),
        ("euler", 1000, 2, "DiracMixtureDenoiser"),
        ("euler", 100, 1, "DiracMixtureDenoiser"),
        ("euler", 10_000, 1, "ConstantDenoiser"),
    ])


def test_sampler_suite_sees_a_first_order_reference(monkeypatch):
    # the RK4 midpoint knot moved from h/2 to 0.505 h: the reference drops
    # to first order, yet its error at 1000 steps still meets the closed-form
    # bound, so only the order check can see it
    from basisdiff import samplers

    src = inspect.getsource(samplers.sample_reference)
    assert src.count("start + 0.5 * h") == 1
    scope = dict(vars(samplers))
    exec(src.replace("start + 0.5 * h", "start + 0.505 * h"), scope)
    monkeypatch.setattr(verify, "sample_reference", scope["sample_reference"])
    report = run_suite("sampler", seed=7)
    assert [c.name for c in report.checks if not c.passed] == [
        "sampler/reference-order"]


def test_optimality_scores_a_zero_variance_direction_without_a_warning():
    # at seed 2201 every residual is exactly 0, so each direction's loss
    # difference has zero variance; it scores +inf, with no divide by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_suite("optimality", seed=2201)
    margin = report.checks[0]
    assert margin.name == "optimality/min-margin-sigmas"
    assert margin.passed and margin.value == np.inf
    value = run_suite("optimality", seed=7).checks[0].value
    assert value == 57.79006227438235


def test_battery_sees_a_mixture_centre_shift(monkeypatch):
    # every mixture component centre moved by 0.1 % of its shift term
    # sum_m h_m: only the midpoint-weights check can see it
    from basisdiff.denoisers import DiracMixtureDenoiser

    real = DiracMixtureDenoiser.__init__

    def shifted(self, dataset, process):
        real(self, dataset, process)
        self._white_shift = 1.001 * self._white_shift

    monkeypatch.setattr(DiracMixtureDenoiser, "__init__", shifted)
    report = run_suite("all", seed=7)
    assert [c.name for c in report.checks if not c.passed] == [
        "optimality/midpoint-weights"]

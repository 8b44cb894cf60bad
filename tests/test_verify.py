import dataclasses
import inspect
import json
import textwrap
import warnings

import numpy as np
import pytest

from basisdiff import verify
from basisdiff.bases import BasisSet
from basisdiff.process import DiffusionProcess
from basisdiff.schedules import (TERMINAL_FRACTION, make_ddpm_schedule,
                                 make_vp_schedule)
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


def _coefficient_nodes():
    params = inspect.signature(verify._checks_coefficients).parameters
    return params["nodes"].default


def test_coefficient_suite_keeps_thirty_two_nodes():
    assert _coefficient_nodes() == 32


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("seed", [7, 90210])
def test_coefficient_quadrature_has_converged(monkeypatch, seed):
    # every case and target at the suite's node count agrees with twice as
    # many nodes, so a speedup cannot come from fewer nodes
    real, seen = verify._moments_by_quadrature, []

    def compare(sched, eta, bsum, x0, sigma_mat, t_targets, nodes):
        out = real(sched, eta, bsum, x0, sigma_mat, t_targets, nodes)
        fine = real(sched, eta, bsum, x0, sigma_mat, t_targets, 2 * nodes)
        for got, want in zip(out, fine):
            seen.extend(_rel(g, w) for g, w in zip(got, want))
        return out

    monkeypatch.setattr(verify, "_moments_by_quadrature", compare)
    assert run_suite("coefficients", seed=seed).passed
    assert len(seen) == 5 * 2 * 2  # cases x (mean, covariance) x targets
    assert max(seen) <= 1.0e-13


@pytest.mark.parametrize("make", [make_vp_schedule, make_ddpm_schedule])
def test_coefficient_quadrature_resolves_the_singular_start(make):
    # for eta > 0 phi ~ sigma' diverges like t^(-1/2) at t = 0; close to it
    # the drift offset alone builds the kernel shift, which the quadrature
    # in u = sqrt(t) still matches to roundoff
    sched, eta = make(), 10.0
    rows = np.random.default_rng(3).normal(size=(3, 3))
    bsum, sigma_mat = rows.sum(axis=0), rows.T @ rows
    t = sched.T / 1000.0
    means, covs = verify._moments_by_quadrature(
        sched, eta, bsum, np.zeros(3), sigma_mat, (t,), _coefficient_nodes())
    scale = sched.s(t) * sched.sigma(t) / (eta + 1.0)
    assert _rel(means[0], eta * scale * bsum) <= 1.0e-12
    assert _rel(covs[0], scale ** 2 * sigma_mat) <= 1.0e-12


@pytest.mark.parametrize("scaled", [None, "f", "g", "phi"])
def test_coefficient_suite_integrates_the_library_coefficients(monkeypatch,
                                                               scaled):
    # criterion 1 takes f, g and phi from schedules.sde_coefficients, one
    # array call per case on the quadrature's nodes, so the suite fails when
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
    # per target, each outer node and its nested rule
    nodes = _coefficient_nodes()
    assert all(n == 2 * nodes * (1 + nodes) for n in calls)
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
    # (integrator, steps, rows, denoiser) of every walk the suite makes, and
    # each Euler grid's scheme; a speedup must not come from fewer walks or
    # from Euler back on the uniform grid, and a shorter walk is pinned by
    # the accuracy tests below to be no less accurate than the one it replaced
    from basisdiff import samplers

    walks = []
    euler, reference = samplers.euler_trajectory, samplers.sample_reference

    def scheme(grid):
        n = len(grid) - 1
        return next((s for s in ("uniform", "quadratic") if np.array_equal(
            grid, samplers.make_time_grid(grid[0], n, s))), None)

    def record_euler(p, den, x_init, grid):
        walks.append(("euler", len(grid) - 1, len(x_init), type(den).__name__,
                      scheme(grid)))
        return euler(p, den, x_init, grid)

    def record_reference(p, den, x_init, steps):
        walks.append(("reference", steps, len(x_init), type(den).__name__))
        return reference(p, den, x_init, steps)

    monkeypatch.setattr(samplers, "euler_trajectory", record_euler)
    monkeypatch.setattr(verify, "euler_trajectory", record_euler)
    monkeypatch.setattr(verify, "sample_reference", record_reference)
    assert run_suite("sampler", seed=7).passed
    assert sorted(walks) == sorted([
        ("reference", 512, 2, "DiracMixtureDenoiser"),
        ("reference", 128, 2, "DiracMixtureDenoiser"),
        ("reference", 512, 1, "ConstantDenoiser"),
        ("reference", 256, 1, "ConstantDenoiser"),
        ("euler", 500, 2, "DiracMixtureDenoiser", "quadratic"),
        ("euler", 50, 1, "DiracMixtureDenoiser", "quadratic"),
        ("euler", 1000, 1, "ConstantDenoiser", "quadratic"),
    ])


def test_sampler_euler_walks_are_first_order(monkeypatch):
    # on the suite's own process, denoisers and top state: on the quadratic
    # grid ten times the steps cut Euler's error ten-fold at 50/500 and at
    # 100/1000, and 1000 quadratic steps meet the closed form at least as
    # well as 10 000 uniform ones; the suite's shorter walks cost no accuracy
    from basisdiff.samplers import (euler_trajectory, make_time_grid,
                                    sample_reference)

    walks = []
    real = verify.euler_trajectory

    def record(p, den, x_init, grid):
        walks.append((p, den, x_init))
        return real(p, den, x_init, grid)

    monkeypatch.setattr(verify, "euler_trajectory", record)
    assert run_suite("sampler", seed=7).passed
    (p, den, _), (_, _, x_top), (_, cden, _) = walks
    assert x_top.shape == (1, 2) and type(cden).__name__ == "ConstantDenoiser"
    T = p.schedule.T

    def end(d, steps, scheme):
        return euler_trajectory(p, d, x_top, make_time_grid(T, steps, scheme))[-1, 0]

    ref = sample_reference(p, den, x_top, 512)[0]
    for coarse in (50, 100):
        ratio = (np.linalg.norm(end(den, coarse, "quadratic") - ref)
                 / np.linalg.norm(end(den, 10 * coarse, "quadratic") - ref))
        assert 9.5 <= ratio <= 10.5
    sig = p.schedule.sigma
    closed = cden.y + (sig(make_time_grid(T, 1)[-1]) / sig(T)) * (x_top[0] - cden.y)
    assert (np.linalg.norm(end(cden, 1000, "quadratic") - closed)
            <= np.linalg.norm(end(cden, 10_000, "uniform") - closed))


def _quadratic_reference(p, den, x, steps):
    """The RK4 walk the oracle took before it walked log t: make_time_grid's
    quadratic grid at 2 steps, in its uniform variable u."""
    from basisdiff.samplers import make_time_grid

    T = p.schedule.T
    u = np.linspace(1.0, 0.0, 2 * steps + 1)
    table = p.knot_table(make_time_grid(T, 2 * steps, "quadratic"))
    # dt/du = 2 (T - eps_t) u at each knot, times a step's u-length -1/steps
    gain = (-2.0 / steps) * (T - T * TERMINAL_FRACTION) * u

    def rhs(j, x):
        return gain[j] * p.pfode_rhs_at(den, table, j, x)

    for j in range(0, 2 * steps, 2):
        k1 = rhs(j, x)
        k2 = rhs(j + 1, x + 0.5 * k1)
        k3 = rhs(j + 1, x + 0.5 * k2)
        k4 = rhs(j + 2, x + k3)
        x = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return x


def _suite_references(monkeypatch):
    """{denoiser class name: (process, denoiser, starts)} of the sampler
    suite's RK4 walks at seed 7."""
    walks = {}
    real = verify.sample_reference

    def record(p, den, x_init, steps):
        walks[type(den).__name__] = (p, den, x_init)
        return real(p, den, x_init, steps)

    monkeypatch.setattr(verify, "sample_reference", record)
    assert run_suite("sampler", seed=7).passed
    return walks


@pytest.mark.parametrize("make_schedule", [make_vp_schedule, make_ddpm_schedule])
def test_mixture_oracle_is_no_less_accurate_than_before(monkeypatch,
                                                        make_schedule):
    # the suite's oracle walk, 512 steps in log t, against the 1024-step
    # quadratic-u walk it replaced, both measured against a 16 384-step walk
    # from the suite's two starts, on the suite's basis and points
    from basisdiff.denoisers import DiracDataset, DiracMixtureDenoiser
    from basisdiff.samplers import sample_reference

    p, den, starts = _suite_references(monkeypatch)["DiracMixtureDenoiser"]
    q = DiffusionProcess(make_schedule(), p.basis, p.eta)
    mix = DiracMixtureDenoiser(DiracDataset(den.rows), q)
    truth = sample_reference(q, mix, starts, 16_384)
    new = np.abs(sample_reference(q, mix, starts, 512) - truth).max()
    old = np.abs(_quadratic_reference(q, mix, starts, 1024) - truth).max()
    assert new <= old


@pytest.mark.parametrize("make_schedule", [make_vp_schedule, make_ddpm_schedule])
def test_constant_reference_is_no_less_accurate_than_before(monkeypatch,
                                                            make_schedule):
    # the suite's closed-form walk, 512 steps in log t, against the
    # 1000-step quadratic-u walk it replaced; for a constant denoiser c the
    # flow ends on s c + (s sigma)/(s_T sigma_T) (x_T - s_T c)
    from basisdiff.samplers import sample_reference

    p, cden, x_top = _suite_references(monkeypatch)["ConstantDenoiser"]
    q = DiffusionProcess(make_schedule(), p.basis, p.eta)
    T = q.schedule.T
    s, _, sig, _ = q.schedule.evaluate(T * TERMINAL_FRACTION)
    s_T, _, sig_T, _ = q.schedule.evaluate(T)
    closed = s * cden.y + (s * sig) / (s_T * sig_T) * (x_top[0] - s_T * cden.y)
    new = np.linalg.norm(sample_reference(q, cden, x_top, 512)[0] - closed)
    old = np.linalg.norm(_quadratic_reference(q, cden, x_top, 1000)[0] - closed)
    assert new <= old


@pytest.mark.parametrize("gain", ["flow_x", "flow_d"])
def test_sampler_suite_sees_a_wrong_flow_gain(monkeypatch, gain):
    # one flow gain 1 % off in every knot table: Euler and the mixture oracle
    # walk the same wrong flow and agree, so only the constant denoiser's
    # closed form, and the RK4 order measured against it, can see it
    real = DiffusionProcess.knot_table

    def knot_table(self, times):
        table = real(self, times)
        return dataclasses.replace(table, **{gain: 1.01 * getattr(table, gain)})

    monkeypatch.setattr(DiffusionProcess, "knot_table", knot_table)
    report = run_suite("sampler", seed=7)
    assert [c.name for c in report.checks if not c.passed] == [
        "sampler/constant-denoiser-euler", "sampler/constant-denoiser-reference",
        "sampler/reference-order"]


def test_moments_suite_keeps_its_walks(monkeypatch):
    # (n_steps, n_paths) of every simulate_sde call: the two clouds, each
    # followed by its pathwise walk; a speedup must not come from fewer or
    # shorter walks
    walks = []
    real = DiffusionProcess.simulate_sde

    def record(self, x0, n_steps, n_paths, rng):
        walks.append((n_steps, n_paths))
        return real(self, x0, n_steps, n_paths, rng)

    monkeypatch.setattr(DiffusionProcess, "simulate_sde", record)
    assert run_suite("moments", seed=7).passed
    assert walks == [(128, 10_000), (64, 8), (128, 10_000), (64, 8)]


def _draw_runs(monkeypatch):
    """Record every Rng draw; the returned function gives one (seed, stream)'s
    draws as (method, rows, row shape) runs, consecutive draws of one method
    and row shape merged, so a cloud drawn in blocks reads as one run."""
    from basisdiff.fields import Rng

    log = []
    for method in ("standard_normal", "integers"):
        def record(self, *args, _real=getattr(Rng, method), _method=method):
            out = _real(self, *args)
            log.append((self.seed, self.stream, _method, np.shape(out)))
            return out

        monkeypatch.setattr(Rng, method, record)

    def runs(seed, stream):
        merged = []
        for s, st, method, shape in log:
            if (s, st) != (seed, stream):
                continue
            rows, row = (shape[0], shape[1:]) if shape else (1, ())
            if merged and (merged[-1][0], merged[-1][2]) == (method, row):
                merged[-1][1] += rows
            else:
                merged.append([method, rows, row])
        return [tuple(run) for run in merged]

    return runs


def test_population_suites_keep_their_draws(monkeypatch):
    # the 1e5-row clouds, counted in rows per (seed, stream): a speedup must
    # not come from fewer draws, and a cloud drawn in blocks keeps its stream
    runs = _draw_runs(monkeypatch)
    assert run_suite("edm-reduction", seed=7).passed
    assert runs(7, 80)[0] == ("standard_normal", 100_000, (4,))
    assert runs(7, 81) == [("standard_normal", 100_000, (4,))]
    assert run_suite("optimality", seed=7).passed
    assert runs(7, 62) == [("integers", 100_000, ()),
                           ("standard_normal", 100_000, (2,))]


@pytest.mark.parametrize("seed", [7, 2201, 90210])
def test_streamed_edm_moments_match_a_whole_cloud_reference(seed):
    # edm-reduction's two clouds reduced a block at a time, against the same
    # draws made in one call and summed exactly (math.fsum) column by column
    import math

    from basisdiff.bases import pixel_basis
    from basisdiff.fields import Rng

    n = 100_000
    p = DiffusionProcess(make_vp_schedule(), pixel_basis((2, 2)), eta=0.0)
    t = p.schedule.T / 2.0

    def reference(cloud, order):
        columns = cloud.T
        powers = [[math.fsum(c ** k) / n for c in columns]
                  for k in range(1, order + 1)]
        cross = [[math.fsum(a * b) / n for b in columns] for a in columns]
        return np.array(powers), np.array(cross)

    rng = Rng(seed, 80)
    streamed = verify._cloud_moments(
        lambda rows: p.noise_from_normals(rng.standard_normal((rows, 4))),
        n, 0.0, 4)
    whole = reference(Rng(seed, 80).standard_normal((n, 4)), 4)
    x0 = rng.standard_normal((2, 2)).reshape(-1)
    kernel = Rng(seed, 81)
    streamed_kernel = verify._cloud_moments(
        lambda rows: p.forward_sample(np.broadcast_to(x0, (rows, 4)), t, kernel),
        n, x0, 2)
    whole_kernel = reference(p.forward_sample(
        np.broadcast_to(x0, (n, 4)), t, Rng(seed, 81)) - x0, 2)
    for got, want in zip(streamed + streamed_kernel, whole + whole_kernel):
        np.testing.assert_allclose(got, want, rtol=1.0e-12, atol=0.0)


@pytest.mark.parametrize("suite", ["edm-reduction", "optimality"])
def test_population_suites_hold_no_whole_cloud(suite):
    # each 1e5-row cloud is drawn and reduced in blocks: the suite's traced
    # peak stays under 4 MB (a whole (1e5, 4) cloud is 3.2 MB by itself)
    import tracemalloc

    tracemalloc.start()
    try:
        assert run_suite(suite, seed=7).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0e6


@pytest.mark.parametrize("scaled,failing", [
    ("f", ["ddpm/eta0", "ddpm/eta10"]),
    ("g", ["vp/eta0", "vp/eta10", "ddpm/eta0", "ddpm/eta10"]),
    ("phi", ["vp/eta10", "ddpm/eta10"]),
])
def test_moments_suite_sees_a_wrong_coefficient(monkeypatch, scaled, failing):
    # f, g or phi 1 % off as both the walk and the chain moments see it: the
    # cloud still follows the chain's law, so only the chain's gap to the
    # closed-form kernel can see it (f is 0 on the VP schedule)
    from basisdiff import process

    real = verify.sde_coefficients

    def coefficients(sched, eta, basis_sum, t):
        c = real(sched, eta, basis_sum, t)
        return dataclasses.replace(c, **{scaled: 1.01 * getattr(c, scaled)})

    monkeypatch.setattr(process, "sde_coefficients", coefficients)
    monkeypatch.setattr(verify, "sde_coefficients", coefficients)
    report = run_suite("moments", seed=7)
    assert [c.name for c in report.checks if not c.passed] == [
        f"moments/{case}/gap-ratio" for case in failing]


@pytest.mark.parametrize("line,louder", [
    ("kick = tail[1:]", "kick = 1.01 * tail[1:]"),
    ("acc *= tail[0]", "acc *= 1.01 * tail[0]"),
], ids=["kick", "start-noise"])
def test_battery_sees_a_louder_sde_scan(monkeypatch, line, louder):
    # simulate_sde's kick, or its start noise, 1 % too large: the 10 000-path
    # clouds resolve a variance to about 1.4 %, so only the pathwise walk on
    # the same draws can see it
    from basisdiff import process

    src = textwrap.dedent(inspect.getsource(DiffusionProcess.simulate_sde))
    assert src.count(line) == 1
    scope = dict(vars(process))
    exec(src.replace(line, louder), scope)
    monkeypatch.setattr(DiffusionProcess, "simulate_sde", scope["simulate_sde"])
    report = run_suite("all", seed=7)
    assert len(report.checks) == 41
    assert [c.name for c in report.checks if not c.passed] == [
        "moments/pathwise-rel-err"]


@pytest.mark.parametrize("fine_gap,expect", [(0.0, 0.0), (1e-9, np.inf)])
def test_gap_ratio_reads_inf_when_an_exact_chain_drifts(monkeypatch, fine_gap,
                                                        expect):
    # the chain meets the kernel exactly at n steps: it must still meet it
    # exactly at 2n, or the ratio check reads inf
    p = DiffusionProcess(make_vp_schedule(),
                         BasisSet((2,), np.array([[1.0, 2.0]])), eta=0.0)
    x0 = np.array([0.5, -1.0])
    mom = p.conditional_moments(x0, p.schedule.T)
    rows = p.basis.elements()
    kernel = (mom.mean, mom.cov_scale * (rows.T @ rows))

    def chain(p, x0, n_steps):
        return kernel[0] + (fine_gap if n_steps == 256 else 0.0), kernel[1]

    monkeypatch.setattr(verify, "_em_chain_moments", chain)
    assert verify._gap_ratio_error(p, x0, 128) == expect


def test_sampler_suite_sees_a_first_order_reference(monkeypatch):
    # the RK4 midpoint knots moved from h/2 to 0.505 h in lambda = log t, in
    # both their time and their dt/dlambda = t: the reference drops to first
    # order, yet its error at 512 steps still meets the closed-form bound,
    # so only the order check and the mixture oracle's self-consistency can
    # see it (moving the time alone also fails constant-denoiser-reference)
    from basisdiff import samplers

    def late(times, steps):
        times = times.copy()
        times[1::2] = times[:-1:2] * TERMINAL_FRACTION ** (0.505 / steps)
        return times

    src = inspect.getsource(samplers.sample_reference)
    knots = "np.geomspace(T, T * TERMINAL_FRACTION, 2 * steps + 1)"
    assert src.count(knots) == 1
    scope = dict(vars(samplers), late=late)
    exec(src.replace(knots, f"late({knots}, steps)"), scope)
    monkeypatch.setattr(verify, "sample_reference", scope["sample_reference"])
    report = run_suite("sampler", seed=7)
    assert [c.name for c in report.checks if not c.passed] == [
        "sampler/reference-order", "sampler/oracle-self-consistency"]


def test_battery_sees_a_mixture_oracle_reading_stale_denoisers(monkeypatch):
    # every RK4 stage reads the denoiser at its step's start knot while the
    # flow gains keep their own knot: a constant denoiser cannot tell, and
    # the mixture oracle stays close enough for every check it feeds, so
    # only its self-consistency against half the steps can see it
    from basisdiff import samplers

    src = inspect.getsource(samplers.sample_reference)
    rhs = "p.pfode_rhs_at(den, table, j, x)"
    assert src.count(rhs) == 1
    stale = ("(table.flow_x[j] * x"
             " - table.flow_d[j] * den.denoise_at(x, table, j - j % 2))")
    scope = dict(vars(samplers))
    exec(src.replace(rhs, stale), scope)
    monkeypatch.setattr(verify, "sample_reference", scope["sample_reference"])
    report = run_suite("all", seed=7)
    assert len(report.checks) == 41
    assert [c.name for c in report.checks if not c.passed] == [
        "sampler/oracle-self-consistency"]


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

"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints one PASS/FAIL line in the terminal summary (see conftest)
so a full run doubles as the acceptance report.  Criteria 1-8 drive the
self-check suites at their documented seed; 9-11 exercise the trained
restoration demo, the hand-written backward pass, and CLI reproducibility.
"""

import inspect
import json
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
from conftest import record_criterion

from basisdiff import verify
from basisdiff.bases import pixel_basis
from basisdiff.cli import _train_network, main
from basisdiff.config import load_config, resolved_objective
from basisdiff.denoisers import PreconditionedDenoiser, TinyNetwork
from basisdiff.fields import Field, Rng
from basisdiff.process import DiffusionProcess
from basisdiff.schedules import make_vp_schedule
from basisdiff.tasks import run_restoration
from basisdiff.training import compute_loss, wrapper_for
from basisdiff.verify import run_suite

SEED = 7
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@lru_cache(maxsize=None)
def _suite(name):
    t0 = time.perf_counter()
    report = run_suite(name, seed=SEED)
    return report, time.perf_counter() - t0


def _crit(number, passed, detail):
    record_criterion(number, passed, detail)
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_kernel_moments_from_integrated_coefficients():
    report, dt = _suite("coefficients")
    worst = max(c.value for c in report.checks)
    ok = (report.passed and dt < 5.0
          and all(c.threshold == 1.0e-6 for c in report.checks))
    _crit(1, ok, f"{len(report.checks)} closed-form moment checks, "
                 f"max rel err {worst:.2e}, {dt:.2f}s")


def test_criterion_02_sde_terminal_cloud_moments():
    report, dt = _suite("moments")
    z = [c.value for c in report.checks if c.name.endswith("-z")]
    ratio = [c.value for c in report.checks if c.name.endswith("/gap-ratio")]
    pathwise, = [c.value for c in report.checks
                 if c.name == "moments/pathwise-rel-err"]
    ok = report.passed and dt < 30.0
    _crit(2, ok, f"max |z| {max(z):.2f} over {len(z)} mean/covariance checks "
                 f"(bound 4), max |gap ratio - 2| {max(ratio):.3f} over "
                 f"{len(ratio)} kernel-gap checks (bound 0.5), pathwise rel "
                 f"err {pathwise:.1e} (bound 1e-12), {dt:.1f}s")


def test_criterion_03_scores_against_finite_differences():
    report, _ = _suite("score")
    per_case = inspect.signature(
        verify._checks_score).parameters["probes_per_case"].default
    n_probes = 4 * per_case  # 2 etas x 2 density families
    fd = [c for c in report.checks if c.name.endswith("-vs-fd")]
    worst = max(c.value for c in fd)
    ok = (report.passed and n_probes >= 50
          and all(c.threshold == 1.0e-5 for c in fd))
    _crit(3, ok, f"{n_probes} log-density probes, max rel err {worst:.2e} "
                 f"(bound 1e-5)")


def test_criterion_04_basis_terms_cancel_in_simplified_flow():
    cancel, _ = _suite("cancellation")
    marginal, _ = _suite("marginal")
    per_case = inspect.signature(
        verify._checks_cancellation).parameters["draws_per_case"].default
    n_draws = 3 * 2 * per_case  # d in {2,3,4} x 2 etas
    worst = max(c.value for c in cancel.checks + marginal.checks)
    ok = (cancel.passed and marginal.passed and n_draws >= 100
          and all(c.threshold == 1.0e-10
                  for c in cancel.checks + marginal.checks))
    _crit(4, ok, f"{n_draws} conditional + 100 marginal states, "
                 f"max |raw - simplified| {worst:.2e} (bound 1e-10)")


def test_criterion_05_reduction_to_standard_formulation():
    report, _ = _suite("edm-reduction")
    flow = [c for c in report.checks if c.name.endswith("flow-rhs-max-diff")]
    stat = [c for c in report.checks if c not in flow]
    ok = (report.passed and flow[0].threshold == 1.0e-12
          and all(c.threshold == 4.0 for c in stat))
    _crit(5, ok, f"1e5-draw normality max z {max(c.value for c in stat):.2f}, "
                 f"flow rhs max diff {flow[0].value:.1e} (bound 1e-12)")


def test_criterion_06_posterior_mean_is_the_loss_minimizer():
    report, _ = _suite("optimality")
    sig = inspect.signature(verify._checks_optimality)
    margin = next(c for c in report.checks
                  if c.name.endswith("min-margin-sigmas"))
    ok = (report.passed
          and sig.parameters["n_samples"].default == 100_000
          and sig.parameters["n_directions"].default == 100)
    _crit(6, ok, f"worst perturbation direction still loses by "
                 f"{margin.value:.1f} standard errors (need >= 2)")


def test_criterion_07_euler_convergence_and_closed_form():
    report, _ = _suite("sampler")
    by_name = {c.name.split("/")[-1]: c for c in report.checks}
    ratio = by_name["euler-error-ratio-min"].value
    const = by_name["constant-denoiser-euler"].value
    ok = (by_name["euler-error-ratio-min"].passed
          and by_name["euler-error-ratio-max"].passed
          and by_name["constant-denoiser-euler"].passed
          and by_name["constant-denoiser-reference"].passed)
    _crit(7, ok, f"50-vs-500 quadratic steps error ratio {ratio:.2f} in [5, 20]; "
                 f"closed-form rel err {const:.1e} at 1e3 quadratic steps "
                 f"(bound 1e-4)")


def test_criterion_08_round_trip_reaches_the_flow_limit():
    report, _ = _suite("sampler")
    rt = next(c for c in report.checks
              if c.name.endswith("round-trip-rel-err"))
    _crit(8, rt.passed and rt.threshold == 1.0e-2,
          f"noise-then-integrate-back rel err {rt.value:.1e} (bound 1e-2)")


def test_criterion_09_trained_restoration_improves_the_image():
    t0 = time.perf_counter()
    cfg = load_config(CONFIGS / "smooth_field.json")
    task, p, net, _ = _train_network(cfg)
    degraded_before = task.degraded.values.copy()
    den = PreconditionedDenoiser(net, p, wrapper_for(resolved_objective(cfg)))
    result = run_restoration(task, p, den, int(cfg["sampling"]["steps"]),
                             scheme=cfg["sampling"]["scheme"])
    dt = time.perf_counter() - t0
    untouched = (np.array_equal(task.degraded.values, degraded_before)
                 and np.array_equal(result.x_init.values,
                                    np.log(task.degraded.values)))
    ok = (result.psnr_out > result.psnr_in
          and result.rmse_out < result.rmse_in
          and untouched and dt < 600.0)
    _crit(9, ok, f"psnr {result.psnr_in:.2f} -> {result.psnr_out:.2f} dB, "
                 f"rmse {result.rmse_in:.2e} -> {result.rmse_out:.2e}, "
                 f"{result.steps} steps, init untouched, {dt:.0f}s")


def test_criterion_10_backward_pass_matches_finite_differences():
    p = DiffusionProcess(make_vp_schedule(), pixel_basis((3,)), 0.0)
    x0 = Field([0.5, -0.4, 0.1])
    mask = Field([1.0, 0.0, 0.0])
    t = 41.0
    h = 1.0e-6
    worst = 0.0
    cases = [("mse-x0", "predict-noise", None),
             ("noise-pred", "predict-noise", None),
             ("weighted-noise-pred", "predict-noise", mask),
             ("x0-pred", "predict-x0", None)]
    for objective, wrap, m in cases:
        net = TinyNetwork([4, 6, 3], Rng(100))
        net.params[:] = 0.7 * Rng(101).standard_normal(net.n_params)
        den = PreconditionedDenoiser(net, p, wrap)

        def loss(seed=500):
            return compute_loss(objective, den, p, x0, t, Rng(seed), mask=m)

        _, grad = loss()
        idx = Rng(102).integers(0, net.n_params, 20)
        fd = np.empty(20)
        for j, i in enumerate(idx):
            keep = net.params[i]
            net.params[i] = keep + h
            up = loss()[0]
            net.params[i] = keep - h
            dn = loss()[0]
            net.params[i] = keep
            fd[j] = (up - dn) / (2.0 * h)
        rel = np.linalg.norm(grad[idx] - fd) / np.linalg.norm(fd)
        worst = max(worst, float(rel))
    _crit(10, worst <= 1.0e-5,
          f"4 loss variants x 20 parameters at step 1e-6, "
          f"max rel err {worst:.1e} (bound 1e-5)")


def test_criterion_11_verification_reports_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    codes = [main(["verify", "--suite", "all", "--seed", str(SEED),
                   "--out", str(p)]) for p in paths]
    dt = time.perf_counter() - t0
    blobs = [p.read_bytes() for p in paths]
    report = json.loads(blobs[0])
    ok = (codes == [0, 0] and blobs[0] == blobs[1]
          and report["passed"] is True)
    _crit(11, ok, f"two full runs at seed {SEED}: exit codes {codes}, "
                  f"{report['n_checks']} checks, byte-identical reports, "
                  f"{dt:.0f}s")

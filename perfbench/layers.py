"""Which basisdiff callables the traced run wraps, and the per-layer metrics.

Each layer is one module of the package.  ``install`` wraps the callables
below; ``per_layer_metrics`` turns the tracer's aggregates into the named
metrics that BENCHMARK.json lists under ``per_layer``.

Counters named ``*_computed`` come from array shapes, not from hardware
counters, and ignore caches:

* TinyNetwork.forward_cached: 2 * n_params * rows flops (one multiply-add
  per weight per row); backward: 4 * n_params * rows (weight gradient plus
  the delta propagated back).
* CovarianceOp.solve_flat: 2 * d^2 * columns flops for the two triangular
  solves, and 8 * d^2 bytes for reading the d x d Cholesky factor once.
* Adam.step: 7 * 8 * n_params bytes, the parameter-sized arrays one step
  must touch (read params, grad, m, v; write params, m, v).

Schedule's scalar methods and Field construction are timed with spans like
everything else; at well under a microsecond per schedule call their
self time is mostly tracer overhead, so read their ``.calls`` first.  Rng
draws and the Cholesky factorizations are counted without spans.
"""

from __future__ import annotations

import math
import os
import sys

from tracer import Tracer

SUITES = ("coefficients", "moments", "score", "cancellation", "marginal",
          "optimality", "sampler", "edm-reduction")

SCHEDULE_METHODS = ("s", "s_prime", "sigma", "sigma_prime", "dsigma2_dt",
                    "alpha_bar", "evaluate")
PROCESS_METHODS = ("pfode_rhs", "sample_noise", "forward_sample",
                   "conditional_moments", "marginal_score_dirac",
                   "pfode_rhs_conditional", "pfode_rhs_marginal")


def _rows(a) -> int:
    return 1 if a.ndim == 1 else a.shape[0]


def _count_forward(st, args, out):
    net, z = args[0], args[1]
    rows = _rows(z)
    st.add("rows", rows)
    st.add("flops_computed", 2 * net.n_params * rows)


def _count_backward(st, args, out):
    net, grad_out = args[0], args[2]
    rows = _rows(grad_out)
    st.add("rows", rows)
    st.add("flops_computed", 4 * net.n_params * rows)


def _count_solve(st, args, out):
    rhs = args[1]
    d = rhs.shape[0]
    cols = 1 if rhs.ndim == 1 else rhs.shape[1]
    st.add("columns", cols)
    st.add("flops_computed", 2 * d * d * cols)
    st.add("bytes_computed", 8 * d * d)


def _count_adam(st, args, out):
    st.add("bytes_computed", 7 * 8 * args[1].size)


def _count_loss(st, args, out):
    if not math.isfinite(out[0]):
        st.add("nonfinite", 1)


def _count_euler(st, args, out):
    st.add("steps", len(out) - 1)


def _count_reference(st, args, out):
    st.add("steps", int(args[3]))


def _count_csv(st, args, out):
    st.add("bytes", os.path.getsize(args[2]))


def _count_exit(st, args, out):
    if out != 0:
        st.add("exit_nonzero", 1)


def _count_draws(st, args, out):
    st.add("draws", int(getattr(out, "size", 1)))


def _count_checks_failed(st, args, out):
    st.add("checks_failed", sum(1 for c in out.checks if not c.passed))


def _count_one(key):
    def count(st, args, out):
        st.add(key, 1)
    return count


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every basisdiff layer."""
    from basisdiff import (bases, cli, config, denoisers, fields, process,
                           samplers, schedules, tasks, training, verify)

    modules = [m for name, m in sys.modules.items()
               if name == "basisdiff" or name.startswith("basisdiff.")]

    def method(cls, attr, name, count=None):
        tracer.patch_method(cls, attr,
                            tracer.span(name, cls.__dict__[attr], count))

    def function(mod, attr, name, count=None):
        tracer.patch_function(modules, mod, attr,
                              lambda fn: tracer.span(name, fn, count))

    method(fields.Field, "__init__", "fields.Field")
    for attr in ("standard_normal", "uniform", "integers", "poisson"):
        tracer.patch_method(fields.Rng, attr, tracer.counter(
            "fields.Rng", fields.Rng.__dict__[attr], _count_draws))

    for attr in SCHEDULE_METHODS:
        method(schedules.Schedule, attr, "schedules.Schedule")
    function(schedules, "sde_coefficients", "schedules.sde_coefficients")

    tracer.patch_method(bases.CovarianceOp, "__init__", tracer.counter(
        "bases.CovarianceOp", bases.CovarianceOp.__init__, _count_one("builds")))
    tracer.patch_method(bases.sla, "cho_factor", tracer.counter(
        "bases.CovarianceOp", bases.sla.cho_factor, _count_one("factorizations")))
    method(bases.CovarianceOp, "solve_flat", "bases.CovarianceOp.solve_flat",
           _count_solve)
    method(bases.CovarianceOp, "apply_flat", "bases.CovarianceOp.apply_flat")

    for attr in PROCESS_METHODS:
        method(process.DiffusionProcess, attr,
               f"process.DiffusionProcess.{attr}")

    method(denoisers.TinyNetwork, "forward_cached",
           "denoisers.TinyNetwork.forward_cached", _count_forward)
    method(denoisers.TinyNetwork, "backward",
           "denoisers.TinyNetwork.backward", _count_backward)
    for attr in ("denoise", "denoise_batch"):
        method(denoisers.DiracMixtureDenoiser, attr,
               f"denoisers.DiracMixtureDenoiser.{attr}")
    method(denoisers.PreconditionedDenoiser, "denoise",
           "denoisers.PreconditionedDenoiser.denoise")

    function(training, "train", "training.train")
    function(training, "compute_loss", "training.compute_loss", _count_loss)
    method(training.Adam, "step", "training.Adam.step", _count_adam)

    function(samplers, "euler_trajectory", "samplers.euler_trajectory",
             _count_euler)
    function(samplers, "sample_reference", "samplers.sample_reference",
             _count_reference)
    function(samplers, "write_trajectory_csv", "samplers.write_trajectory_csv",
             _count_csv)

    function(tasks, "run_restoration", "tasks.run_restoration")
    function(config, "load_config", "config.load_config")
    function(config, "build_task", "config.build_task")
    function(cli, "main", "cli.main", _count_exit)

    # one span name per suite, so each suite is its own row
    suites = {s: tracer.span(f"verify.{s}", verify.run_suite,
                             _count_checks_failed) for s in SUITES}
    tracer.patch_function(modules, verify, "run_suite", lambda fn: (
        lambda name, seed=7: suites.get(name, fn)(name, seed)))


def _spec():
    """(metric name, unit, better, span name, field) for every per-layer metric."""
    out = []

    def add(span, field, unit, better, name=None):
        out.append((name or f"{span}.{field}", unit, better, span, field))

    def timed(span, *extra):
        add(span, "calls", "count", "lower")
        for field, unit, better in extra:
            add(span, field, unit, better)
        add(span, "self_s", "s", "lower")

    timed("fields.Field")
    add("fields.Rng", "draws", "count", "lower", "fields.Rng.draws")
    timed("schedules.Schedule")
    timed("schedules.sde_coefficients")
    add("bases.CovarianceOp", "builds", "count", "lower")
    add("bases.CovarianceOp", "factorizations", "count", "lower")
    timed("bases.CovarianceOp.solve_flat", ("columns", "count", "lower"),
          ("flops_computed", "flop", "lower"), ("bytes_computed", "B", "lower"))
    add("bases.CovarianceOp.solve_flat", "columns_per_call", "count", "higher")
    add("bases.CovarianceOp.solve_flat", "flops_per_byte", "flop/B", "higher")
    timed("bases.CovarianceOp.apply_flat")
    for attr in PROCESS_METHODS:
        timed(f"process.DiffusionProcess.{attr}")
    for attr in ("forward_cached", "backward"):
        span = f"denoisers.TinyNetwork.{attr}"
        timed(span, ("rows", "count", "lower"),
              ("flops_computed", "flop", "lower"))
        add(span, "rows_per_call", "count", "higher")
    timed("denoisers.DiracMixtureDenoiser.denoise")
    timed("denoisers.DiracMixtureDenoiser.denoise_batch")
    timed("denoisers.PreconditionedDenoiser.denoise")
    add("training.train", "self_s", "s", "lower")
    timed("training.compute_loss")
    add("training.compute_loss", "nonfinite", "count", "lower",
        "training.nonfinite_losses")
    timed("training.Adam.step", ("bytes_computed", "B", "lower"))
    for attr in ("euler_trajectory", "sample_reference"):
        timed(f"samplers.{attr}", ("steps", "count", "lower"))
    timed("samplers.write_trajectory_csv", ("bytes", "B", "lower"))
    timed("tasks.run_restoration")
    for suite in SUITES:
        add(f"verify.{suite}", "total_s", "s", "lower", f"verify.{suite}.wall_s")
        add(f"verify.{suite}", "checks_failed", "count", "lower")
    add("config.load_config", "self_s", "s", "lower")
    add("config.build_task", "self_s", "s", "lower")
    add("cli.main", "calls", "count", "lower")
    add("cli.main", "exit_nonzero", "count", "lower")
    return out


SPEC = _spec()
OVERHEAD = ("trace_overhead_frac", "ratio", "lower")
PER_LAYER = [(name, unit, better) for name, unit, better, _, _ in SPEC] + [OVERHEAD]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(stats: dict) -> dict:
    """Per-layer metrics from the tracer's aggregates over one traced unit."""
    values = {}
    for name, unit, _, span, field in SPEC:
        st = stats.get(span)
        if st is None:
            v = 0
        elif field == "columns_per_call":
            v = _ratio(st.counters.get("columns", 0), st.calls)
        elif field == "flops_per_byte":
            v = _ratio(st.counters.get("flops_computed", 0),
                       st.counters.get("bytes_computed", 0))
        elif field == "rows_per_call":
            v = _ratio(st.counters.get("rows", 0), st.calls)
        elif field in ("calls", "self_s", "total_s"):
            v = getattr(st, field)
        else:
            v = st.counters.get(field, 0)
        values[name] = {"value": v, "unit": unit}
    return values

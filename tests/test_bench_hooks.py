"""The benchmark's traced mode wraps basisdiff callables by name.

perfbench/layers.py looks each wrapped name up on its class or module, so a
renamed or deleted name breaks the traced benchmark run.  This test installs
and removes the wraps, so such a change fails here first.
"""

import sys
from pathlib import Path

import numpy as np

from basisdiff import bases, samplers, schedules
from basisdiff.bases import CovarianceOp, pixel_basis
from basisdiff.config import apply_overrides, check, load_config
from basisdiff.denoisers import ConstantDenoiser
from basisdiff.fields import Field, Rng
from basisdiff.process import DiffusionProcess, DiracDataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIGS = PERFBENCH.parent / "configs"


def _harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        from tracer import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers, Tracer


def test_tracer_installs_and_uninstalls_every_wrap():
    layers, Tracer = _harness()
    solve_flat = CovarianceOp.__dict__["solve_flat"]
    cho_factor = bases.sla.cho_factor
    tracer = Tracer()
    try:
        layers.install(tracer)
        # the wraps see the calls: one build, one schedule call; the
        # cho_factor wrap counts nothing, as no basisdiff code calls it
        CovarianceOp(pixel_basis((2,))).whiten([1.0, 2.0])
        schedules.make_vp_schedule().evaluate(1.0)
    finally:
        tracer.uninstall()
    assert tracer.stats["bases.CovarianceOp"].counters == {"builds": 1}
    assert tracer.stats["schedules.Schedule"].calls == 1
    assert CovarianceOp.__dict__["solve_flat"] is solve_flat
    assert bases.sla.cho_factor is cho_factor


def test_tracer_counts_stacked_walks_and_array_schedule_calls():
    layers, Tracer = _harness()
    sched = schedules.make_vp_schedule()
    p = DiffusionProcess(sched, pixel_basis((2,)), 0.0)
    den = ConstantDenoiser(Field([0.3, -0.2]))
    tracer = Tracer()
    try:
        layers.install(tracer)
        # the wrap reads the step count from the 4th positional argument
        out = samplers.sample_reference(p, den, np.ones((3, 2)), 6)
        calls_before = tracer.stats["schedules.Schedule"].calls
        sigma = sched.sigma(np.linspace(0.0, 100.0, 50))
        array_calls = tracer.stats["schedules.Schedule"].calls - calls_before
    finally:
        tracer.uninstall()
    assert out.shape == (3, 2) and sigma.shape == (50,)
    ref = tracer.stats["samplers.sample_reference"]
    assert ref.calls == 1 and ref.counters == {"steps": 6}
    assert array_calls == 1


def test_tracer_reads_the_raw_score_and_sde_call_layouts():
    # the solve wrap reads d from the rhs's first axis and counts its
    # columns; the coefficient wrap counts one call per Euler-Maruyama step
    layers, Tracer = _harness()
    rows = np.array([[1.0, 0.2], [0.3, 1.1], [0.5, -0.4]])
    p = DiffusionProcess(schedules.make_vp_schedule(),
                         bases.BasisSet((2,), elements=rows), 10.0)
    ds = DiracDataset([Field([0.5, -0.2]), Field([-1.0, 0.7])])
    tracer = Tracer()
    try:
        layers.install(tracer)
        score = p.marginal_score_dirac(ds, 40.0, np.ones((3, 2)))
        paths = p.simulate_sde(Field([0.1, 0.2]), 4, 5, Rng(3))
    finally:
        tracer.uninstall()
    assert score.shape == (3, 2) and paths.shape == (5, 2)
    solve = tracer.stats["bases.CovarianceOp.solve_flat"]
    assert solve.calls == 1 and solve.counters["columns"] == 3
    assert solve.counters["flops_computed"] == 2 * 2 * 2 * 3
    assert tracer.stats["schedules.sde_coefficients"].calls == 4


def test_benchmark_inputs_pass_the_config_check():
    # a new config rule must never turn a benchmark run into exit 2
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import SampleMixture, TrainRestore
    finally:
        sys.path.remove(str(PERFBENCH))
    for seed in (1, 2, 90210):
        check(apply_overrides(load_config(CONFIGS / "smooth_field.json"),
                              TrainRestore.inputs(seed)))
        gen = SampleMixture.inputs(seed)
        cfg = load_config(CONFIGS / "toy_sample.json")
        cfg.update(seed=gen["seed"], points=gen["points"])
        cfg["sampling"].update(gen["sampling"])
        check(cfg)
    for path in sorted(CONFIGS.glob("*.json")):
        check(load_config(path))

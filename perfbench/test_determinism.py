"""Tests of the benchmark itself: seeded inputs, repeatable counts, metric names.

Run from the repository root:

    python3 -m pytest -q perfbench/test_determinism.py

The repeat test runs every workload twice in traced mode (about two minutes
on two cores).
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Counters and quality metrics that must repeat exactly at one seed.
EXACT_SUFFIXES = (".calls", ".rows", ".steps", ".bytes", "_computed", ".draws",
                  ".builds", ".factorizations", ".columns", ".checks_failed",
                  ".exit_nonzero", ".nonfinite_losses")
QUALITY = {"train-restore": "restore_psnr_db",
           "sample-mixture": "sample_endpoint_err",
           "verify-all": "verify_checks_passed"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    inputs = workloads.WORKLOADS[name].inputs
    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def _traced_run(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    path = ROOT / ".bench_out" / f"result-{name}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_and_quality_repeat_at_one_seed(name):
    first, second = _traced_run(name, 3), _traced_run(name, 3)
    exact = [k for k in first["result"]["metrics"] if k.endswith(EXACT_SUFFIXES)]
    assert exact
    for key in exact:
        assert (first["result"]["metrics"][key]["value"]
                == second["result"]["metrics"][key]["value"]), key
    quality = QUALITY[name]
    assert (first["named_metrics"][quality]["value"]
            == second["named_metrics"][quality]["value"])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in layers.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


def test_probe_runs_beside_a_unit_and_is_left_out():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return 7

    handler = signal.getsignal(signal.SIGALRM)
    spent0, t0 = probe.spent(), time.perf_counter()
    out, wall, probe_s, after = probe.timed(busy, probe.probe())
    gross = time.perf_counter() - t0
    inside = probe.spent() - spent0
    assert out == 7
    assert inside > 0 and probe_s > 0 and after > 0
    assert wall + inside + after == pytest.approx(gross, abs=0.005)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.scaled(2.0, 2 * probe.nominal_s()) == pytest.approx(1.0)
    assert probe.trimmed_mean([1.0, 1.0, 2.0, 2.0, 90.0]) == pytest.approx(5 / 3)


def test_self_time_excludes_nested_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    inner_t = tracer.span("inner", inner)

    def outer():
        time.sleep(0.01)
        inner_t()
        inner_t()

    tracer.span("outer", outer)()
    out, inn = tracer.stats["outer"], tracer.stats["inner"]
    assert (out.calls, inn.calls) == (1, 2)
    assert out.self_s + inn.total_s == pytest.approx(out.total_s, abs=1e-9)
    assert 0.01 <= out.self_s < 0.03
    parents = {rec[1]: rec[4] for rec in tracer.spans}
    assert parents["outer"] == -1
    assert parents["inner"] == next(r[0] for r in tracer.spans if r[1] == "outer")

"""basisdiff needs numpy only: no import or subcommand loads a scipy module.

Each check runs in a fresh interpreter, because the test process has long
since loaded scipy through other tests.  Only the benchmark tracer still
reads scipy, through the `bases.sla` shim.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import basisdiff

SRC = Path(basisdiff.__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIGS = PERFBENCH.parent / "configs"


def _fresh(code: str) -> dict:
    """Run code in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(PERFBENCH)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_import_loads_no_scipy():
    loaded = _fresh("""
        import json, sys
        import basisdiff, basisdiff.cli
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy."))))
    """)
    assert loaded == []


def test_score_suite_loads_no_scipy_stats():
    state = _fresh("""
        import json, sys
        from basisdiff.verify import run_suite
        report = run_suite("score", 7)
        print(json.dumps({"passed": report.passed,
                          "stats": sorted(m for m in sys.modules
                                          if m.startswith("scipy.stats"))}))
    """)
    assert state == {"passed": True, "stats": []}


@pytest.mark.parametrize("args", [
    ["train", "--config", "smooth_field.json", "--set", "training.steps=3"],
    ["restore", "--config", "smooth_field.json",
     "--set", "restore.denoiser=analytic"],
    ["sample", "--config", "toy_sample.json"],
    ["simulate", "--config", "toy_sample.json", "--set", "simulate.n_paths=50",
     "--set", "simulate.n_steps=8"],
    ["verify", "--suite", "all"],
    ["demo-case3", "--config", "case3.json", "--set", "case3.n_draws=1000"],
], ids=lambda args: args[0])
def test_no_subcommand_loads_scipy(args, tmp_path):
    args = [str(CONFIGS / a) if a.endswith(".json") else a for a in args]
    out = ["--out", str(tmp_path / ("report.json" if args[0] == "verify"
                                    else "out"))]
    state = _fresh(f"""
        import contextlib, io, json, sys
        from basisdiff.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main({args + out!r})
        print(json.dumps({{"exit": code,
                          "scipy": sorted(m for m in sys.modules
                                          if m.split(".")[0] == "scipy")}}))
    """)
    assert state == {"exit": 0, "scipy": []}


def test_tracer_wraps_cho_factor_before_scipy_is_loaded():
    # the tracer reads bases.sla while scipy is still unloaded
    state = _fresh("""
        import json, sys
        import numpy as np
        import layers
        from tracer import Tracer
        from basisdiff import bases
        from basisdiff.bases import CovarianceOp, pixel_basis
        before = "scipy.linalg" in sys.modules
        tracer = Tracer()
        try:
            layers.install(tracer)
            CovarianceOp(pixel_basis((2,))).whiten(np.array([1.0, 2.0]))
        finally:
            tracer.uninstall()
        from scipy.linalg._decomp_cholesky import cho_factor
        print(json.dumps({
            "before": before,
            "counters": tracer.stats["bases.CovarianceOp"].counters,
            "restored": bases.sla.cho_factor is cho_factor}))
    """)
    # no basisdiff code calls cho_factor, so only the build is counted
    assert state == {"before": False, "counters": {"builds": 1},
                     "restored": True}

"""Start-up cost: importing basisdiff loads no scipy module.

scipy.linalg loads at the first covariance factorization.  Each check runs
in a fresh interpreter, because the test process has long since loaded
scipy through other tests.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import basisdiff

SRC = Path(basisdiff.__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_first_whitening_loads_scipy_linalg():
    state = _fresh("""
        import json, sys
        import numpy as np
        from basisdiff.bases import CovarianceOp, pixel_basis
        before = "scipy.linalg" in sys.modules
        w = CovarianceOp(pixel_basis((2,))).whiten(np.array([1.0, 2.0]))
        print(json.dumps({"before": before,
                          "after": "scipy.linalg" in sys.modules,
                          "w": w.tolist()}))
    """)
    assert state == {"before": False, "after": True, "w": [1.0, 2.0]}


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
    assert state == {"before": False,
                     "counters": {"builds": 1, "factorizations": 1},
                     "restored": True}

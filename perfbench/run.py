"""basisdiff benchmark: one seeded workload, end-to-end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-restore --seed 1 --seconds 25 --trace 0

The harness imports basisdiff from ``src/`` and drives its public API and
CLI in this one process, as a single closed-loop client: each call waits for
the previous one to finish.  BLAS is pinned to BLAS_THREADS threads before
numpy loads.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:
``setup_s`` (median of SETUP_PROBES fresh processes, each timing the import
of basisdiff and the workload's set-up), ``scaled_wall_s`` (median time of
one solution) and ``peak_rss_mb``.  Both times are scaled to a nominal host
speed by the probe of ``probe.py``, timed beside them; the raw times are
printed as ``wall_s`` and ``setup_raw_s``, with the median probe time
``probe_s``.  ``--trace 1`` repeats the untraced window, then runs one traced
solution (set-up included) with every layer wrapped, and reports the
per-layer metrics and ``trace_overhead_frac``.

Output checks run outside the timed region.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is 0 only when every check passed and no operation failed.  The full
report, with the machine block and the workload-specific metrics, goes to
``.bench_out/`` in the checkout, next to the span file of a traced run.

Seed 90210 is held out: it was not used while the benchmark was tuned, and
a claimed gain is re-checked on it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BLAS_THREADS = 1
SETUP_PROBES = 5
WORKLOAD_NAMES = ("train-restore", "sample-mixture", "verify-all")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _checkout() -> Path:
    """The checkout root (the working directory), with basisdiff's sources."""
    root = Path.cwd()
    for need in ("src/basisdiff/__init__.py", "configs/smooth_field.json",
                 "configs/toy_sample.json"):
        if not (root / need).is_file():
            sys.exit(f"perfbench: {root / need} is missing; run from the root "
                     "of a basisdiff checkout")
    sys.path.insert(0, str(root / "src"))
    return root


def _setup_probe(args, root: Path) -> None:
    """Child process: time import plus set-up, with the host-speed probe.

    Prints the set-up seconds (probe time left out) and the same scaled
    to the nominal host speed, by the scalar probe kernel.
    """
    import probe

    def setup():
        import workloads
        workloads.WORKLOADS[args.workload](root, args.seed, _work_dir(root))

    probe.warm()
    try:
        _, setup_s, probe_s, _ = probe.timed(setup, probe.probe())
        print(f"{setup_s!r} {probe.scaled(setup_s, probe_s)!r}")
    finally:
        shutil.rmtree(_work_dir(root), ignore_errors=True)


def _setup_seconds(args) -> list:
    """(set-up seconds, scaled set-up seconds) from SETUP_PROBES fresh
    processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1"]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        raw, scaled = res.stdout.strip().splitlines()[-1].split()
        out.append((float(raw), float(scaled)))
    return out


def _work_dir(root: Path) -> Path:
    return root / ".bench_out" / f"work-{os.getpid()}"


def machine() -> dict:
    """Where the numbers were taken; unreadable entries are reported as such."""
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    llc = "unknown"
    try:
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = [(int((c / "level").read_text()), (c / "size").read_text().strip())
                  for c in caches.glob("index*")]
        llc = max(levels)[1]
    except (OSError, ValueError):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "last_level_cache": llc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _traced_unit(wl_cls, root: Path, seed: int, work: Path):
    """Set-up plus one solution with every layer wrapped: (tracer, unit).

    The host-speed probe runs untraced, before and after.
    """
    import layers
    import probe
    from tracer import Tracer

    tracer = Tracer()
    before = statistics.fmean(probe.probe() for _ in range(5))
    layers.install(tracer)
    try:
        wl = wl_cls(root, seed, work)
        tracer.run_id = 1
        unit = wl.unit()
    finally:
        tracer.uninstall()
    after = statistics.fmean(probe.probe() for _ in range(5))
    unit["probe_s"] = 0.5 * (before + after)
    return tracer, unit


def run(args, root: Path) -> tuple:
    """(result line, report) for one run."""
    import layers
    import probe
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "operation": wl_cls.op}
    setup = None if args.trace else _setup_seconds(args)
    work = _work_dir(root)
    wl = wl_cls(root, args.seed, work)
    units = wl.measure(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = wl.summarize(units)
    checks = dict(summary["checks"])

    if args.trace:
        tracer, traced = _traced_unit(wl_cls, root, args.seed, work / "traced")
        checks["traced run gives the untraced outputs"] = all(
            wl.summarize(wl.with_traced(units, traced))["checks"].values())
        metrics = layers.per_layer_metrics(tracer.stats)
        traced_scaled = probe.scaled(traced["wall_s"], traced["probe_s"])
        metrics["trace_overhead_frac"] = {
            "value": traced_scaled / summary["scaled_wall_s"] - 1.0,
            "unit": "ratio"}
        trace_name = f"trace-{args.workload}-seed{args.seed}.jsonl"
        trace_path = root / ".bench_out" / trace_name
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
        report["trace_file"] = str(trace_path.relative_to(root))
        report["traced_wall_s"] = traced["wall_s"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup),
                        "unit": "s"},
            "scaled_wall_s": {"value": summary["scaled_wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        report["setup_samples"] = [{"raw_s": t, "scaled_s": s}
                                   for t, s in setup]
        summary["named"]["setup_raw_s"] = (
            statistics.median(t for t, _ in setup), "s")

    summary["named"]["wall_s"] = (summary["wall_s"], "s")
    summary["named"]["probe_s"] = (
        statistics.median(summary["unit_probe_s"]), "s")
    attempted, failed = summary["attempted"], summary["failed"]
    report.update({
        "units": len(units),
        "unit_wall_s": summary["unit_wall_s"],
        "unit_probe_s": summary["unit_probe_s"],
        "named_metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in summary["named"].items()},
        "ops_failed_frac": {"value": failed / attempted, "failed": failed,
                            "attempted": attempted},
        "checks": checks,
    })
    result = {"correct": all(checks.values()) and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    # before numpy loads; the set-up probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    args = _parse(argv)
    root = _checkout()
    if args.setup_probe:
        _setup_probe(args, root)
        return 0
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        result, report = run(args, root)
    except Exception:  # the run is one operation that failed; report it
        traceback.print_exc()
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        report = {"workload": args.workload, "seed": args.seed, "error":
                  traceback.format_exc().splitlines()[-1]}
    finally:
        shutil.rmtree(_work_dir(root), ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_dir / name, "w") as fh:
        json.dump({**report, "result": result}, fh, indent=1)
    print(f"# machine {json.dumps(report.get('machine'))}")
    for key, m in sorted({**report.get("named_metrics", {}),
                          **result["metrics"]}.items()):
        print(f"# {key} = {m['value']!r} {m['unit']}")
    for key, ok in report.get("checks", {}).items():
        print(f"# check {'ok  ' if ok else 'FAIL'} {key}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Fold benchmark result files of a parent and a change into one summary.

Run from the repository root after running ``perfbench/run.py`` on both
checkouts with the same workloads and seeds:

    python3 tools/bench_summary.py --parent PARENT/.bench_out --change .bench_out --out BENCH_6.json

Each directory holds ``result-<workload>-seed<N>-trace<T>.json`` files, as
``perfbench/run.py`` writes them.  Only untraced runs (trace 0) are folded.
A pair is one (workload, seed) run on both sides.  For every workload and
end-to-end metric of ``BENCHMARK.json`` the summary holds, per side, the
median, the quartiles and the IQR, and over the pairs the pair count, the
wins (pairs where the change is better in the metric's direction) and the
median change in percent, and a verdict:

* ``gain``: the change wins at least 90 % of the pairs, and its median is
  better than the parent's by more than the parent's IQR;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median;
* ``no change``: anything else.

The machine block of the first paired run of the change is copied once.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")


def load_runs(directory: Path) -> dict:
    """{(workload, seed): report} for the untraced result files in directory."""
    runs = {}
    for path in sorted(directory.glob("result-*-trace0.json")):
        m = RESULT.search(path.name)
        if m:
            with open(path) as fh:
                runs[(m["workload"], int(m["seed"]))] = json.load(fh)
    return runs


def spread(values: list) -> dict:
    """Median, quartiles and IQR; the quartiles of one value are that value."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


GAIN_SHARE = 0.9


def verdict(parent: dict, change: dict, wins: int, pairs: int,
            better: str, bound=None) -> str:
    """'gain', 'worse' or 'no change' from the two spreads and the wins."""
    # positive when the change's median is better in the metric's direction
    moved = parent["median"] - change["median"]
    if better != "lower":
        moved = -moved
    if bound is not None and -moved > bound * abs(parent["median"]):
        return "worse"
    if wins >= GAIN_SHARE * pairs and moved > parent["iqr"]:
        return "gain"
    return "no change"


def summarize(parent: dict, change: dict, metrics: list) -> dict:
    """Per workload: the seeds, run health and per-metric comparison."""
    out = {}
    paired = parent.keys() & change.keys()
    for workload in sorted({w for w, _ in paired}):
        seeds = sorted(s for w, s in paired if w == workload)
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        entry = {"seeds": seeds, "pairs": len(pairs), "metrics": {}}
        for side, index in (("parent", 0), ("change", 1)):
            reports = [pair[index] for pair in pairs]
            entry[f"{side}_all_correct"] = all(
                r.get("result", {}).get("correct", False) for r in reports)
            entry[f"{side}_ops_failed"] = sum(
                r.get("result", {}).get("failed", 0) for r in reports)
        for metric in metrics:
            name = metric["name"]
            values = [(p["result"]["metrics"][name]["value"],
                       c["result"]["metrics"][name]["value"])
                      for p, c in pairs
                      if name in p["result"]["metrics"]
                      and name in c["result"]["metrics"]]
            if not values:
                continue
            lower = metric["better"] == "lower"
            wins = sum(1 for a, b in values if (b < a if lower else b > a))
            sides = {"parent": spread([a for a, _ in values]),
                     "change": spread([b for _, b in values])}
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric.get("bound"),
                **sides,
                "pairs": len(values),
                "wins": wins,
                "median_change_pct": 100.0 * statistics.median(
                    (b - a) / a for a, b in values if a),
                "verdict": verdict(sides["parent"], sides["change"], wins,
                                   len(values), metric["better"],
                                   metric.get("bound")),
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="the parent checkout's .bench_out directory")
    ap.add_argument("--change", required=True, type=Path,
                    help="the change's .bench_out directory")
    ap.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    with open(args.benchmark) as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    paired = sorted(parent.keys() & change.keys())
    if not paired:
        sys.exit("bench_summary: no (workload, seed) run on both sides")
    first = change[paired[0]]
    summary = {"machine": first.get("machine"),
               "seconds": first.get("seconds"),
               "workloads": summarize(parent, change, metrics)}
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:15s} {name:14s} {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} {m['unit']} "
                  f"({m['median_change_pct']:+.1f} %, {m['wins']}/{m['pairs']} "
                  f"better, parent IQR {m['parent']['iqr']:.3g}): "
                  f"{m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

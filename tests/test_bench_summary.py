"""tools/bench_summary.py folds paired result files into a verdict per metric.

The result files here are synthetic, written in the layout perfbench/run.py
uses, so the test runs no benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

METRICS = [
    {"name": "scaled_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _tool():
    sys.path.insert(0, str(TOOLS))
    try:
        import bench_summary
    finally:
        sys.path.remove(str(TOOLS))
    return bench_summary


def _write(directory: Path, workload: str, values: dict) -> None:
    """One untraced result file per seed; values maps seed -> metrics."""
    directory.mkdir(parents=True, exist_ok=True)
    for seed, metrics in values.items():
        report = {"machine": {"cpus": 2}, "seconds": 25.0,
                  "result": {"correct": True, "failed": 0, "metrics": {
                      k: {"value": v} for k, v in metrics.items()}}}
        path = directory / f"result-{workload}-seed{seed}-trace0.json"
        path.write_text(json.dumps(report))


def _summary(tmp_path, parent_walls, change_walls, parent_rates=None,
             change_rates=None):
    n = len(parent_walls)
    parent_rates = parent_rates or [1.0] * n
    change_rates = change_rates or [1.0] * n
    seeds = range(100, 100 + n)
    _write(tmp_path / "parent", "w", {
        s: {"scaled_wall_s": a, "rate": r}
        for s, a, r in zip(seeds, parent_walls, parent_rates)})
    _write(tmp_path / "change", "w", {
        s: {"scaled_wall_s": b, "rate": r}
        for s, b, r in zip(seeds, change_walls, change_rates)})
    tool = _tool()
    return tool.summarize(tool.load_runs(tmp_path / "parent"),
                          tool.load_runs(tmp_path / "change"), METRICS)["w"]


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.03, 0.97]


def test_a_clear_win_on_every_pair_is_a_gain(tmp_path):
    entry = _summary(tmp_path, PARENT, [0.85 * a for a in PARENT])
    m = entry["metrics"]["scaled_wall_s"]
    assert (m["wins"], m["pairs"]) == (10, 10)
    assert m["median_change_pct"] == pytest.approx(-15.0)
    assert m["verdict"] == "gain"
    assert entry["metrics"]["rate"]["verdict"] == "no change"


def test_nine_wins_in_ten_still_count_and_eight_do_not(tmp_path):
    nine = [0.85 * a for a in PARENT]
    nine[3] = 1.5 * PARENT[3]
    m = _summary(tmp_path / "a", PARENT, nine)["metrics"]["scaled_wall_s"]
    assert (m["wins"], m["verdict"]) == (9, "gain")
    eight = list(nine)
    eight[5] = PARENT[5]  # a tie counts for neither side
    m = _summary(tmp_path / "b", PARENT, eight)["metrics"]["scaled_wall_s"]
    assert (m["wins"], m["verdict"]) == (8, "no change")


def test_a_win_inside_the_parents_iqr_is_no_gain(tmp_path):
    m = _summary(tmp_path, PARENT,
                 [a - 0.005 for a in PARENT])["metrics"]["scaled_wall_s"]
    assert m["wins"] == 10
    assert 0.005 < m["parent"]["iqr"]
    assert m["verdict"] == "no change"


def test_worse_by_more_than_the_bound(tmp_path):
    # the bound is a fraction of the parent's median, here 10 s
    slow = [10.0 * a for a in PARENT]
    m = _summary(tmp_path, slow,
                 [1.3 * a for a in slow])["metrics"]["scaled_wall_s"]
    assert m["verdict"] == "worse"
    m = _summary(tmp_path / "within", slow,
                 [1.2 * a for a in slow])["metrics"]["scaled_wall_s"]
    assert m["verdict"] == "no change"


def test_higher_is_better_metrics_turn_the_direction(tmp_path):
    entry = _summary(tmp_path, PARENT, PARENT, parent_rates=PARENT,
                     change_rates=[1.2 * a for a in PARENT])
    assert entry["metrics"]["rate"]["verdict"] == "gain"
    entry = _summary(tmp_path / "drop", PARENT, PARENT, parent_rates=PARENT,
                     change_rates=[0.8 * a for a in PARENT])
    assert entry["metrics"]["rate"]["verdict"] == "worse"


def test_main_stores_and_prints_the_verdict(tmp_path, capsys):
    _summary(tmp_path, PARENT, [0.85 * a for a in PARENT])
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": METRICS}))
    out = tmp_path / "summary.json"
    assert _tool().main(["--parent", str(tmp_path / "parent"),
                         "--change", str(tmp_path / "change"),
                         "--benchmark", str(bench), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["machine"] == {"cpus": 2}
    metrics = summary["workloads"]["w"]["metrics"]
    assert metrics["scaled_wall_s"]["verdict"] == "gain"
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].endswith(": gain")
    assert printed[1].endswith(": no change")

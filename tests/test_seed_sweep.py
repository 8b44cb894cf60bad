"""tools/seed_sweep.py runs a verify suite over many seeds and flags checks
that read non-finite or sit above half their bound."""

import math
import sys
from pathlib import Path

import pytest

from basisdiff.verify import CheckResult, SuiteReport, _lower, _upper

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool():
    sys.path.insert(0, str(TOOLS))
    try:
        import seed_sweep
    finally:
        sys.path.remove(str(TOOLS))
    return seed_sweep


def _rows(*checks):
    rows = {}
    for c in checks:
        rows.setdefault(c.name, []).append(c)
    return rows


def test_sweep_seeds_are_the_documented_ones():
    assert _tool().SWEEP_SEEDS == tuple(range(1, 21)) + (31, 2201, 2204, 90210)


def test_flags_a_non_finite_value_at_any_seed():
    rows = _rows(_lower("s/margin", 30.0, 2.0, 1),
                 _lower("s/margin", math.inf, 2.0, 2),
                 _upper("s/err", math.nan, 1.0, 1))
    assert _tool().flags(rows) == ["s/margin: non-finite at seeds [2]",
                                   "s/err: non-finite at seeds [1]"]


def test_flags_a_deterministic_upper_check_above_half_its_bound():
    rows = _rows(_upper("s/err", 0.4, 1.0, 1), _upper("s/err", 0.6, 1.0, 2),
                 _upper("s/fails", 3.0, 1.0, 5))
    assert _tool().flags(rows) == ["s/err: above half its bound at seeds [2]",
                                   "s/fails: above half its bound at seeds [5]"]


def test_z_checks_and_lower_checks_are_not_held_to_half_their_bound():
    rows = _rows(_upper("s/mean-z", 3.9, 4.0, 1),
                 _lower("s/ratio-min", 5.7, 5.0, 1),
                 _upper("s/zero", 0.0, 0.0, 1))
    assert _tool().flags(rows) == []


def test_a_lower_check_failing_below_its_bound_is_not_read_as_upper():
    rows = _rows(CheckResult("s/ratio-min", False, 0.1, 5.0, 3))
    assert _tool().flags(rows) == []


def _band_rows(*values):
    # a -min/-max pair on one value at seeds 1, 2, ...: the band [5, 20]
    return _rows(*[_lower("s/ratio-min", v, 5.0, seed) for seed, v in
                   enumerate(values, 1)],
                 *[_upper("s/ratio-max", v, 20.0, seed) for seed, v in
                   enumerate(values, 1)])


def test_a_shared_min_max_pair_is_flagged_outside_its_middle_half():
    # [5^(3/4) 20^(1/4), 5^(1/4) 20^(3/4)] = [7.071, 14.142]; 5.68 sat on the
    # floor and passed the half-bound rule, 10.17 is in the middle yet sat
    # above half the max bound
    tool = _tool()
    assert tool.band(_band_rows(10.17), "s/ratio-max") == (5.0, 20.0)
    assert tool.flags(_band_rows(7.08, 10.17, 14.14)) == []
    assert tool.flags(_band_rows(5.68, 10.17, 7.07, 14.15, 25.0)) == [
        "s/ratio: outside the middle half of [5, 20] at seeds [1, 3, 4, 5]"]


def test_a_min_max_pair_on_different_values_is_two_checks():
    tool = _tool()
    rows = _rows(_lower("s/ratio-min", 5.5, 5.0, 1),
                 _upper("s/ratio-max", 15.0, 20.0, 1))
    assert tool.band(rows, "s/ratio-min") is None
    assert tool.flags(rows) == ["s/ratio-max: above half its bound at seeds [1]"]


def test_sampler_suite_has_nothing_to_flag_at_four_seeds():
    tool = _tool()
    rows = tool.sweep("sampler", (7, 2201, 2204, 90210))
    assert len(rows) == 7
    assert tool.band(rows, "sampler/euler-error-ratio-min") == (5.0, 20.0)
    assert tool.flags(rows) == []


# edm-reduction's noise is the pixel basis, whose operator mixes weights by
# a copy
@pytest.mark.parametrize("suite, n_checks", [
    ("coefficients", 10), ("edm-reduction", 3), ("cancellation", 3),
    ("marginal", 2)])
def test_suite_has_nothing_to_flag_at_the_sweep_seeds(suite, n_checks):
    tool = _tool()
    rows = tool.sweep(suite, tool.SWEEP_SEEDS)
    assert len(rows) == n_checks
    assert all(len(checks) == 24 for checks in rows.values())
    assert tool.flags(rows) == []


def test_main_prints_each_check_and_exits_by_its_flags(capsys):
    assert _tool().main(["--suite", "coefficients", "--seeds", "7", "31"]) == 0
    out = capsys.readouterr().out
    assert "coefficients/ddpm-random-eta10/mean-rel-err" in out
    assert out.rstrip().endswith("10 checks over 2 seeds, 0 flagged")


def test_main_exits_one_when_it_flags(monkeypatch, capsys):
    tool = _tool()

    def run_suite(name, seed):
        return SuiteReport(name, seed, (_lower("s/margin", math.inf, 2.0, seed),))

    monkeypatch.setattr(tool, "run_suite", run_suite)
    assert tool.main(["--suite", "optimality", "--seeds", "4"]) == 1
    assert "FLAG s/margin: non-finite at seeds [4]" in capsys.readouterr().out

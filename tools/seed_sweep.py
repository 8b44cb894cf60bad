"""Run a verify suite over many seeds and flag checks that cannot fail.

Run from the repository root:

    PYTHONPATH=src python3 tools/seed_sweep.py --suite all --seeds 1 2 3 2201

Without ``--seeds`` the sweep covers seeds 1-20, 31, 2201, 2204 and 90210.
For every check of the suite it prints the least and the largest value over
the seeds, beside the check's bound, and flags:

* any non-finite value (a check that reads ``inf`` or ``nan`` at some seed);
* a two-sided band outside its geometric middle half at some seed;
* a deterministic upper check above half its bound at some seed.

A ``-min``/``-max`` pair that reads one value at every seed is one band
[lo, hi] (a lower bound lo and an upper bound hi on the same value).  Its
middle half is [lo^(3/4) hi^(1/4), lo^(1/4) hi^(3/4)], [7.07, 14.14] for
[5, 20]: a value outside it sits within a quarter of the band, on a log
scale, of one of its ends.

A check is an upper check when, at every seed, it passed exactly when its
value was at most its bound; a lower check (``value >= bound``) passes
above its bound, which gives it away.  The statistical z checks, whose
names end in ``-z``, are meant to approach their bound of 4 and are not
held to half of it.  The exit status is 1 when anything is flagged, else 0.
"""

from __future__ import annotations

import argparse
import math
import sys

from basisdiff.verify import SUITE_NAMES, run_suite

SWEEP_SEEDS = tuple(range(1, 21)) + (31, 2201, 2204, 90210)


def sweep(suite: str, seeds) -> dict:
    """{check name: [CheckResult at each seed]} in the suite's check order."""
    rows = {}
    for seed in seeds:
        for check in run_suite(suite, seed).checks:
            rows.setdefault(check.name, []).append(check)
    return rows


def band(rows: dict, name: str):
    """(lo, hi) when name and its -min/-max sibling read one value at every
    seed, with bounds 0 < lo < hi; else None."""
    stem, _, side = name.rpartition("-")
    if side not in ("min", "max"):
        return None
    low, high = rows.get(f"{stem}-min"), rows.get(f"{stem}-max")
    if (low is None or high is None
            or [(c.seed, c.value) for c in low] != [(c.seed, c.value) for c in high]):
        return None
    lo, hi = low[0].threshold, high[0].threshold
    return (lo, hi) if 0.0 < lo < hi else None


def flags(rows: dict) -> list:
    """One line for each check that is non-finite or too close to its bound."""
    out = []
    for name, checks in rows.items():
        bad = [c.seed for c in checks if not math.isfinite(c.value)]
        if bad:
            out.append(f"{name}: non-finite at seeds {bad}")
            continue
        bounds = band(rows, name)
        if bounds:
            if name.endswith("-min"):
                lo, hi = bounds
                mid = lo ** 0.75 * hi ** 0.25, lo ** 0.25 * hi ** 0.75
                off = [c.seed for c in checks if not mid[0] <= c.value <= mid[1]]
                if off:
                    out.append(f"{name[:-4]}: outside the middle half of "
                               f"[{lo:g}, {hi:g}] at seeds {off}")
            continue
        upper = all(c.passed == (c.value <= c.threshold) for c in checks)
        if upper and not name.endswith("-z"):
            near = [c.seed for c in checks if c.value > 0.5 * c.threshold]
            if near:
                out.append(f"{name}: above half its bound at seeds {near}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    ap.add_argument("--seeds", type=int, nargs="+", default=SWEEP_SEEDS)
    args = ap.parse_args(argv)
    rows = sweep(args.suite, args.seeds)
    width = max(len(name) for name in rows)
    print(f"{'check':<{width}}  {'min':>12}  {'max':>12}  {'bound':>9}")
    for name, checks in rows.items():
        values = [c.value for c in checks]
        print(f"{name:<{width}}  {min(values):>12.4g}  {max(values):>12.4g}  "
              f"{checks[0].threshold:>9.3g}")
    found = flags(rows)
    for line in found:
        print(f"FLAG {line}")
    print(f"{len(rows)} checks over {len(args.seeds)} seeds, "
          f"{len(found)} flagged")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

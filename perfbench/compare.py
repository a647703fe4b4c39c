"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the records run.py appends, one run per line; pass
``--results`` to run.py to keep the two sides in separate files.  For every
workload and metric that both sides report, a row gives each side's median,
first and third quartile and number of runs, the change of the median, and
for end-to-end metrics a verdict against the bound in BENCHMARK.json:

    worse       the after median is worse than the before median by more
                than the bound
    unresolved  a side's spread (quartile distance over median) exceeds the
                bound, and not every after run is better than every before run
    better      the after median is better by more than both sides' spreads
    same        otherwise

Per-layer metrics have no bound and get no verdict.  The exit status is 1
when any row reads "worse".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{(workload, metric): [values...]} over the runs in a results file."""
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["metrics"].items():
            runs.setdefault((rec["workload"], name), []).append(float(m["value"]))
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(before, after, bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    mb, ma = summary(before)[0], summary(after)[0]
    worse_by = sign * (ma - mb) / abs(mb) if mb else sign * (ma - mb)
    if worse_by > bound:
        return "worse"
    separated = all(sign * a < sign * b for a in after for b in before)
    if max(spread(before), spread(after)) > bound and not separated:
        return "unresolved"
    if -worse_by > max(spread(before), spread(after)):
        return "better"
    return "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    before, after = load(args.before), load(args.after)

    def cell(values):
        med, q1, q3 = summary(values)
        return f"{med:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"

    print(f"{'workload':14s} {'metric':28s} {'before median [q1, q3]':>40s} "
          f"{'after median [q1, q3]':>40s} {'change':>8s}  verdict")
    any_worse = False
    for key in sorted(set(before) & set(after)):
        workload, name = key
        b, a = before[key], after[key]
        mb, ma = summary(b)[0], summary(a)[0]
        change = f"{(ma - mb) / abs(mb):+.1%}" if mb else "n/a"
        word = ""
        if name in bounds:
            m = bounds[name]
            word = verdict(b, a, m["bound"], m["better"] == "lower")
            any_worse |= word == "worse"
        print(f"{workload:14s} {name:28s} {cell(b):>40s} {cell(a):>40s} {change:>8s}  {word}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

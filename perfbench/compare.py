#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py A.json B.json

``A.json`` (the base) and ``B.json`` are files ``run.py --json`` wrote;
each may hold several runs.  One row per workload x end-to-end metric:
both medians, the ratio B/A, the run-to-run spread, and a verdict that
applies the metric's direction and bound:

``no worse``    B's median is not worse than A's by more than the bound
``worse``       it is (exit status 1)
``unresolved``  the spread on either side is wider than the bound, so
                the medians cannot settle it - unless every run of B
                reads better than every run of A (``no worse``) or
                worse than every run of A by more than the bound
                (``worse``)

Per-layer metrics from traced runs follow without a verdict: they have
no bound; their ratios show where a change landed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def spread(values: list) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance with four or more runs, else the full range."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(med)
    return (max(values) - min(values)) / abs(med)


def verdict(a: list, b: list, better: str, bound: float) -> dict:
    """Judge runs ``b`` against base runs ``a`` of one metric."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / abs(med_a)
    width = max(spread(a), spread(b))
    if better == "lower":
        all_better, all_worse = max(b) <= min(a), min(b) > max(a)
    else:
        all_better, all_worse = min(b) >= max(a), max(b) < min(a)
    if width > bound and not all_better:
        word = ("worse" if all_worse and worsening > bound
                else "unresolved")
    else:
        word = "worse" if worsening > bound else "no worse"
    return {"base": med_a, "new": med_b, "ratio": med_b / med_a,
            "spread": width, "verdict": word}


def load(path: str) -> dict:
    """``{(workload, traced, metric): [values]}`` of one file."""
    with open(path) as f:
        runs = json.load(f)["runs"]
    out: dict = {}
    for run in runs:
        for name, m in run["metrics"].items():
            key = (run["workload"], bool(run["trace"]), name)
            out.setdefault(key, []).append(m["value"])
    return out


def compare(a: dict, b: dict) -> list:
    rows = []
    for w in (w["name"] for w in WORKLOADS):
        for m in END_TO_END:
            key = (w, False, m["name"])
            if key in a and key in b:
                rows.append({"workload": w, "metric": m["name"],
                             "unit": m["unit"], "bound": m["bound"],
                             **verdict(a[key], b[key], m["better"],
                                       m["bound"])})
    for w in (w["name"] for w in WORKLOADS):
        for m in PER_LAYER:
            key = (w, True, m.name)
            if key in a and key in b and statistics.median(a[key]) != 0:
                med_a = statistics.median(a[key])
                med_b = statistics.median(b[key])
                rows.append({"workload": w, "metric": m.name,
                             "unit": m.unit, "bound": None, "base": med_a,
                             "new": med_b, "ratio": med_b / med_a,
                             "spread": max(spread(a[key]), spread(b[key])),
                             "verdict": "-"})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':15s} {'metric':34s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        bound = f"{r['bound']:.2f}" if r["bound"] is not None else "-"
        print(f"{r['workload']:15s} {r['metric']:34s} {r['base']:12.5g} "
              f"{r['new']:12.5g} {r['ratio']:8.3f} {r['spread']:7.3f} "
              f"{bound:>6s}  {r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("no worse", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())

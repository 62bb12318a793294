#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``run.py --out`` file; A is the parent, B the change.
For every workload and end-to-end metric of ``BENCHMARK.json`` it prints
both sides' median and quartiles, the change of the medians, the
metric's bound and a verdict:

``worse``
    B's median is worse than A's by more than the bound.
``better``
    every B run beats every A run, or B's median is better by more
    than the bound.
``same``
    the medians differ by no more than the bound.
``unresolved``
    a side's spread (quartile distance over median) is wider than the
    bound, and not every B run beats every A run.

The model outputs (``kb_per_image``, ``j_per_image``, ``sim_delay_s``)
are deterministic: for every seed both sides ran they must be equal,
else the verdict is ``changed``.  ``error_rate`` may not increase.
Exits 1 on any ``worse`` or ``changed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
DETERMINISTIC = ("kb_per_image", "j_per_image", "sim_delay_s")
FAILING = ("worse", "changed")


def load_records(paths: "list[str]") -> "dict[str, list[dict]]":
    """Records of every file, grouped by workload."""
    grouped: "dict[str, list[dict]]" = {}
    for path in paths:
        for record in json.loads(Path(path).read_text(encoding="utf-8")):
            grouped.setdefault(record["workload"], []).append(record)
    return grouped


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: "list[float]", b: "list[float]", better: str, bound: float) -> "tuple[str, float]":
    """The verdict on one metric, and B's relative change of the median."""
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1]
    sign = 1.0 if better == "higher" else -1.0
    if sign > 0:
        all_better = min(b) > max(a)
    else:
        all_better = max(b) < min(a)
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if all_better:
        return "better", change
    if spread > bound:
        return "unresolved", change
    if sign * change < -bound:
        return "worse", change
    if sign * change > bound:
        return "better", change
    return "same", change


def deterministic_verdict(a: "list[dict]", b: "list[dict]", name: str) -> str:
    """``changed`` if any seed both sides ran reads differently."""
    left = {r["seed"]: r["metrics"][name]["value"] for r in a if name in r["metrics"]}
    right = {r["seed"]: r["metrics"][name]["value"] for r in b if name in r["metrics"]}
    shared = set(left) & set(right)
    if not shared:
        return "unresolved"
    return "same" if all(left[s] == right[s] for s in shared) else "changed"


ROW = "{:<14} {:<16} {:>32} {:>32} {:>8} {:>6}  {}"


def _cell(values: "list[float]") -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(a_paths: "list[str]", b_paths: "list[str]") -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounded = {metric["name"] for metric in spec["end_to_end"]}
    side_a, side_b = load_records(a_paths), load_records(b_paths)
    failures = 0
    print(ROW.format("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict"))
    for workload in sorted(set(side_a) & set(side_b)):
        a, b = side_a[workload], side_b[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            outcome, change = verdict(va, vb, metric["better"], metric["bound"])
            if name in DETERMINISTIC:
                outcome = deterministic_verdict(a, b, name)
            print(ROW.format(workload, name, _cell(va), _cell(vb), f"{change:+.2%}", f"{metric['bound']:.0%}", outcome))
            failures += outcome in FAILING
        for name in DETERMINISTIC:
            if name in bounded:
                continue
            outcome = deterministic_verdict(a, b, name)
            if outcome != "unresolved":
                print(ROW.format(workload, name, "(per seed)", "(per seed)", "", "exact", outcome))
                failures += outcome in FAILING
        rate_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        rate_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        outcome = "worse" if rate_b > rate_a else "same"
        print(ROW.format(workload, "error_rate", f"{rate_a:.4g}", f"{rate_b:.4g}", "", "0", outcome))
        failures += outcome in FAILING
    return 1 if failures else 0


def main(argv: "list[str]") -> int:
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1 :]
    if not a_paths or not b_paths:
        print("need at least one file on each side of --", file=sys.stderr)
        return 2
    return compare(a_paths, b_paths)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

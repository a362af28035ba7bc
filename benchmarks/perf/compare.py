"""``--compare A.json B.json``: a verdict per workload and end-to-end metric.

A and B are result files written with ``--out`` (one run, or the whole
benchmark with several runs per workload).  For each metric the verdict
compares B's median with A's, using the metric's ``bound`` and ``better``
from ``BENCHMARK.json``:

* ``worse`` — B is worse than A by more than the bound;
* ``better`` — B is better than A by more than the bound;
* ``within bound`` — otherwise;
* ``unresolved`` — either side's runs spread (interquartile distance over
  median) more than the bound, unless every B run beats every A run.

Any failed or wrong-output operation in B that A did not have is ``worse``
too.  The command exits non-zero when any verdict is ``worse``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .common import median, spread


def runs_by_workload(document: Dict[str, object]) -> Dict[str, List[Dict[str, object]]]:
    """The untraced runs of a result file, per workload."""
    if "workloads" in document:
        return {name: entry["runs"] for name, entry in document["workloads"].items()}
    return {document["workload"]: [document]} if not document.get("trace") else {}


def verdict(before: List[float], after: List[float], better: str, bound: float) -> Tuple[str, float]:
    """(verdict, relative change of the median, positive = worse)."""
    base = median(before)
    change = (median(after) - base) / base if base else 0.0
    worsening = change if better == "lower" else -change
    if max(spread(before), spread(after)) > bound:
        wins = all(
            (b < a) if better == "lower" else (b > a) for a in before for b in after
        )
        return ("better" if wins else "unresolved"), worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "within bound", worsening


def compare(path_a: str, path_b: str, spec: Dict[str, object]) -> Tuple[List[Dict[str, object]], bool]:
    """Rows of the comparison table and whether any verdict is ``worse``."""
    with open(path_a, encoding="utf-8") as handle:
        runs_a = runs_by_workload(json.load(handle))
    with open(path_b, encoding="utf-8") as handle:
        runs_b = runs_by_workload(json.load(handle))
    rows = []
    for workload in sorted(set(runs_a) & set(runs_b)):
        before, after = runs_a[workload], runs_b[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [run["metrics"][name]["value"] for run in before]
            values_b = [run["metrics"][name]["value"] for run in after]
            outcome, worsening = verdict(values_a, values_b, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": median(values_a), "b": median(values_b),
                "change": worsening, "bound": metric["bound"], "verdict": outcome,
            })
        failed_a = sum(run["failed"] for run in before)
        failed_b = sum(run["failed"] for run in after)
        rows.append({
            "workload": workload, "metric": "failed_ops", "unit": "count",
            "a": failed_a, "b": failed_b, "change": float(failed_b - failed_a), "bound": 0.0,
            "verdict": "worse" if failed_b > failed_a else "within bound",
        })
    return rows, any(row["verdict"] == "worse" for row in rows)


def render(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':<14} {'metric':<16} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}  verdict"]
    for row in rows:
        change = (
            f"{row['change']:>+8.0f}" if row["metric"] == "failed_ops"
            else f"{row['change'] * 100:>7.1f}%"
        )
        lines.append(
            f"{row['workload']:<14} {row['metric']:<16} {row['a']:>12.4g} {row['b']:>12.4g} "
            f"{change} {row['bound'] * 100:>5.0f}%  {row['verdict']}"
        )
    return "\n".join(lines)

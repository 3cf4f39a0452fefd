"""Compare two sets of benchmark results: ``run.py compare PARENT CHANGE``.

Each directory holds the result files ``run.py --out DIR`` wrote, one
per (workload, seed, mode).  For every (metric, workload):

* **gain**: the change wins at least 9 of 10 pairs of runs with the same
  seed (ties count for neither) and the medians differ, in the better
  direction, by more than the parent's interquartile range;
* **regression**: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* **unresolved**: the parent's interquartile range, as a share of its
  median, is wider than the bound, so a regression could hide in it,
  unless every change run is better than every parent run;
* **same**: none of these.

Metrics without a bound (the per-layer ones) are only tested for a gain.
The exit code is 1 when any pair regressed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: ``schema`` of the result files ``run.py`` writes.
SCHEMA = "pipeline-bench-v1"
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) by ``statistics.quantiles``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float],
            pairs: Sequence[Tuple[float, float]], better: str,
            bound: Optional[float]) -> dict:
    """Status of one (metric, workload) under the rule above."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    gain_by = sign * (p_med - c_med)
    iqr = p_q3 - p_q1
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain_by > iqr:
        status = "gain"
    elif bound is None:
        status = "same"
    elif p_med and iqr / abs(p_med) > bound and not all_better:
        status = "unresolved"
    elif p_med and -gain_by / abs(p_med) > bound:
        status = "regression"
    else:
        status = "same"
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "pairs": len(pairs), "status": status,
    }


def load_results(directory) -> Dict[Tuple[str, str], Dict[int, List[dict]]]:
    """{(workload, mode): {seed: [metrics, ...]}} of one result directory."""
    found: Dict[Tuple[str, str], Dict[int, List[dict]]] = defaultdict(
        lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("schema") != SCHEMA:
            continue
        mode = "trace" if data["trace"] else "timed"
        found[(data["workload"], mode)][data["seed"]].append(data["metrics"])
    return found


def compare(parent_dir, change_dir, declared: Dict[str, dict]) -> List[dict]:
    """One row per (metric, workload) present on both sides."""
    parent = load_results(parent_dir)
    change = load_results(change_dir)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        p_runs, c_runs = parent[key], change[key]
        names = sorted({name for runs in p_runs.values() for run in runs
                        for name in run})
        for name in names:
            spec = declared.get(name, {"better": "lower"})

            def values(runs):
                return [run[name]["value"] for seed in sorted(runs)
                        for run in runs[seed] if name in run]

            pairs = [
                (p[name]["value"], c[name]["value"])
                for seed in sorted(set(p_runs) & set(c_runs))
                for p, c in zip(p_runs[seed], c_runs[seed])
                if name in p and name in c
            ]
            p_values, c_values = values(p_runs), values(c_runs)
            if not p_values or not c_values:
                continue
            row = verdict(p_values, c_values, pairs, spec["better"],
                          spec.get("bound"))
            row.update(metric=name, workload=workload)
            rows.append(row)
    return rows


def render(rows: List[dict]) -> str:
    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{'workload':14s} {'metric':28s} {'parent median [q1, q3]':34s} "
             f"{'change median [q1, q3]':34s} {'wins':>7s}  status"]
    for row in rows:
        lines.append(
            f"{row['workload']:14s} {row['metric']:28s} "
            f"{fmt(row['parent']):34s} {fmt(row['change']):34s} "
            f"{row['wins']:>3d}/{row['pairs']:<3d}  {row['status']}"
        )
    return "\n".join(lines)


def main(parent_dir, change_dir, benchmark: dict) -> int:
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    declared.update({m["name"]: m for m in benchmark["per_layer"]})
    rows = compare(parent_dir, change_dir, declared)
    if not rows:
        print("no (workload, metric) pair found in both directories")
        return 1
    print(render(rows))
    return 1 if any(row["status"] == "regression" for row in rows) else 0

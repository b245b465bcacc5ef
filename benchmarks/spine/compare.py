"""``compare A.json B.json``: did B regress against A?

Both files are sets written by ``python -m benchmarks.spine run --out``.
For every end-to-end metric on every workload that emits it, the medians
over each set's untraced runs are compared in the metric's direction
against its bound.  The sets must have seen the same inputs: a differing
``inputs_digest`` (or simulator digest) is an error, not a measurement.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from benchmarks.spine import catalogue, stats


@dataclass(frozen=True)
class Row:
    """One (metric, workload) verdict."""

    metric: str
    workload: str
    base: float  # A's median: the base of ``ratio``
    new: float  # B's median
    ratio: float  # new / base
    worse_by: float  # share of base by which B is worse (negative: better)
    bound: float
    status: str  # ok | regression | unresolved


def _untraced(records: list[dict[str, Any]], workload: str) -> list[dict[str, Any]]:
    return [r for r in records if r["workload"] == workload and not r["trace"]]


def _spread(values: list[float]) -> float:
    """Quartile range as a share of the median; 0 with fewer than two runs."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = stats.quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def judge(spec: catalogue.Metric, workload: str, a: list[float], b: list[float]) -> Row:
    base, new = statistics.median(a), statistics.median(b)
    lower = spec.better == "lower"
    delta = (new - base) if lower else (base - new)
    worse_by = delta / abs(base) if base else (1.0 if delta > 0 else 0.0)
    bound = spec.bound or 0.0
    b_always_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if worse_by > bound and delta > spec.slack:
        status = "regression"
    elif max(_spread(a), _spread(b)) > bound > 0 and not b_always_better:
        # The runs of one set disagree by more than the bound, so a change
        # of that size could hide here: say so instead of "unchanged".
        status = "unresolved"
    else:
        status = "ok"
    return Row(
        spec.name, workload, base, new, new / base if base else float("nan"), worse_by,
        bound, status,
    )


def compare_sets(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[Row], list[str]]:
    """Rows for every shared (metric, workload), and digest mismatches."""
    rows: list[Row] = []
    errors: list[str] = []
    for workload in catalogue.WORKLOADS:
        runs_a = _untraced(a["records"], workload)
        runs_b = _untraced(b["records"], workload)
        if not runs_a or not runs_b:
            continue
        for key in ("inputs_digest", "digests"):
            if len({json.dumps(r[key], sort_keys=True) for r in runs_a + runs_b}) != 1:
                errors.append(f"{workload}: {key} differs between the sets")
        for spec in catalogue.END_TO_END:
            if workload not in spec.on:
                continue
            if not all(spec.name in r["metrics"] for r in runs_a + runs_b):
                continue  # quick sets leave the restart out
            values_a = [r["metrics"][spec.name]["value"] for r in runs_a]
            values_b = [r["metrics"][spec.name]["value"] for r in runs_b]
            rows.append(judge(spec, workload, values_a, values_b))
    return rows, errors


def format_rows(rows: list[Row]) -> str:
    lines = [
        f"{'metric':<28s}{'workload':<16s}{'base (A)':>14s}{'new (B)':>14s}"
        f"{'B/A':>8s}{'worse by':>10s}{'bound':>8s}  status"
    ]
    for row in rows:
        lines.append(
            f"{row.metric:<28s}{row.workload:<16s}{row.base:>14.4f}{row.new:>14.4f}"
            f"{row.ratio:>8.3f}{row.worse_by:>+10.1%}{row.bound:>8.0%}  {row.status}"
        )
    return "\n".join(lines)


def main(path_a: Path, path_b: Path) -> int:
    rows, errors = compare_sets(
        json.loads(path_a.read_text()), json.loads(path_b.read_text())
    )
    print(format_rows(rows))
    for error in errors:
        print(f"ERROR {error}")
    regressions = [row for row in rows if row.status == "regression"]
    unresolved = [row for row in rows if row.status == "unresolved"]
    print(
        f"{len(rows)} rows: {len(regressions)} regression(s), "
        f"{len(unresolved)} unresolved, {len(errors)} input mismatch(es)"
    )
    return 1 if regressions or errors else 0

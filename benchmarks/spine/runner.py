"""Run one workload in this process and report it.

The workload modules import ``repro``; this module imports them lazily, by
name, so that set-up time includes those imports and so that an untraced
run never imports ``trace.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import time
from pathlib import Path
from typing import Any

from benchmarks.spine import catalogue, stats

#: workload -> (module, function).
ENTRY = {
    "sim_n40": ("benchmarks.spine.sim_workloads", "run_n40"),
    "sim_churn_n20": ("benchmarks.spine.sim_workloads", "run_churn_n20"),
    "live_n4_open": ("benchmarks.spine.live_workloads", "run_open"),
    "live_n4_secure": ("benchmarks.spine.live_workloads", "run_secure"),
    "store_explore": ("benchmarks.spine.store_workload", "run"),
}


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    quick: bool = False,
    started: float | None = None,
    trace_path: Path | None = None,
) -> dict[str, Any]:
    """Run ``workload`` once and return its full record."""
    started = time.perf_counter() if started is None else started
    host = stats.host_fingerprint()
    module_name, function_name = ENTRY[workload]
    run = getattr(importlib.import_module(module_name), function_name)
    tracer = None
    if trace:
        from benchmarks.spine.trace import Tracer

        tracer = Tracer()
    import_s = time.perf_counter() - started

    outcome = run(seed, seconds, tracer, quick)

    correct = all(outcome.checks.values())
    failed = outcome.failed if correct else max(outcome.failed, outcome.attempted)
    metrics = dict(outcome.metrics)
    metrics["setup_s"] = stats.metric(
        "s", "lower", [import_s + sample for sample in outcome.setup_samples]
    )
    metrics["peak_rss_mb"] = stats.metric(
        "MB", "lower", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    )
    metrics["failed_share"] = stats.metric("ratio", "lower", [failed / outcome.attempted])
    record: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "host": host,
        "inputs_digest": outcome.inputs_digest,
        "digests": outcome.digests,
        "checks": outcome.checks,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "timed_s": outcome.timed_s,
        "metrics": metrics,
    }
    if tracer is not None:
        record["layer"] = _layer_metrics(tracer, outcome)
        if trace_path is not None:
            tracer.write(trace_path, workload)
    return record


def _layer_metrics(tracer: Any, outcome: Any) -> dict[str, dict[str, Any]]:
    """Every per-layer metric, including the zeros of bypassed layers."""
    values: dict[str, float] = {}
    for name in catalogue.BOUNDARIES:
        values[f"{name}.calls"] = float(tracer.calls.get(name, 0))
        values[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    values.update(dict.fromkeys((name for name, _, _ in catalogue.COUNTERS), 0.0))
    values.update(outcome.layer)
    if outcome.overhead_pair is not None:
        untraced, traced = outcome.overhead_pair
        values["bench.trace_overhead_share"] = traced / untraced - 1.0
    values["bench.harness_self_s"] = tracer.total_self_s("bench.")
    values["bench.spans_recorded"] = float(len(tracer.spans))
    if outcome.traced_wall_s > 0:
        values["bench.accounted_share"] = tracer.total_self_s() / outcome.traced_wall_s
    return {
        spec.name: {"value": values[spec.name], "unit": spec.unit, "better": spec.better}
        for spec in catalogue.per_layer()
    }


def contract_result(record: dict[str, Any]) -> dict[str, Any]:
    """The one-line result object of the builder's contract."""
    if record["trace"]:
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["layer"].items()
        }
    else:
        named, invert = catalogue.PRIMARY[record["workload"]]
        primary = record["metrics"][named]["value"]
        values = {
            "setup_s": record["metrics"]["setup_s"]["value"],
            "peak_rss_mb": record["metrics"]["peak_rss_mb"]["value"],
            "throughput_per_s": 1000.0 / primary if invert else primary,
        }
        metrics = {
            spec.name: {"value": values[spec.name], "unit": spec.unit}
            for spec in catalogue.CONTRACT_END_TO_END
        }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def format_record(record: dict[str, Any]) -> str:
    """Every metric of one run by name, for people."""
    lines = [
        f"== {record['workload']} seed={record['seed']} seconds={record['seconds']:g} "
        f"trace={int(record['trace'])} timed={record['timed_s']:.2f}s "
        f"inputs={record['inputs_digest'][:12]}"
    ]
    for name, entry in record["metrics"].items():
        lines.append(
            f"  {name:<28s} {entry['value']:>14.4f} {entry['unit']:<9s} "
            f"{entry['better']:<6s} n={entry['n']:<6d} "
            f"q1={entry['q1']:.4f} q3={entry['q3']:.4f}"
        )
    for name, entry in record.get("layer", {}).items():
        if entry["value"]:
            lines.append(f"  {name:<44s} {entry['value']:>16.6f} {entry['unit']}")
    for name, value in record["digests"].items():
        lines.append(f"  {name} = {value}")
    for name, passed in record["checks"].items():
        lines.append(f"  check {name}: {'ok' if passed else 'FAILED'}")
    return "\n".join(lines)


def workload_main(argv: list[str], started: float) -> int:
    parser = argparse.ArgumentParser(description="Run one spine workload once.")
    parser.add_argument("--workload", required=True, choices=sorted(ENTRY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for self-tests")
    parser.add_argument("--out", type=Path, help="write the full record here as JSON")
    args = parser.parse_args(argv)
    trace_path = None
    if args.trace and args.out is not None:
        trace_path = args.out.with_name(f"trace-{args.workload}.json")
    record = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        started=started,
        trace_path=trace_path,
    )
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1))
    print(format_record(record))
    print(json.dumps(contract_result(record)))
    return 0 if record["correct"] else 1

"""``python -m benchmarks.spine``: run the whole set, or compare two sets.

``run`` executes the workloads one after another, each in its own
subprocess (so ``peak_rss_mb`` and set-up time belong to one workload), and
prints every metric of every workload by name.  With ``--trace`` each
workload runs a second time under the tracer for the per-layer metrics;
the end-to-end numbers always come from the untraced run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from benchmarks.spine import catalogue, compare, stats
from benchmarks.spine.runner import format_record

#: Seconds per workload when ``--seconds`` is not given (``BENCHMARK.json``
#: uses the same figure).
DEFAULT_SECONDS = 15.0
QUICK_SECONDS = 2.0

RUN_PY = Path(__file__).with_name("run.py")


def _run_one(
    workload: str, seed: int, seconds: float, trace: bool, quick: bool, out_dir: Path
) -> dict[str, Any] | None:
    """One subprocess; its record, or ``None`` if it died without one."""
    record_path = out_dir / f"record-{workload}-{int(trace)}.json"
    record_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(RUN_PY),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--out", str(record_path),
    ]  # fmt: skip
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if not record_path.exists():
        print(f"== {workload}: exited {done.returncode} without a record")
        return None
    record = json.loads(record_path.read_text())
    record_path.unlink()
    return record


def run_set(args: argparse.Namespace) -> int:
    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    workloads = args.workload or list(catalogue.WORKLOADS)
    records: list[dict[str, Any]] = []
    healthy = True
    with tempfile.TemporaryDirectory() as scratch:
        # Traced runs leave trace-<workload>.json beside --out, if given.
        out_dir = args.out.resolve().parent if args.out else Path(scratch)
        for workload in workloads:
            modes = [False] * args.repeats + ([True] if args.trace else [])
            for trace in modes:
                record = _run_one(workload, args.seed, seconds, trace, args.quick, out_dir)
                if record is None:
                    healthy = False
                    continue
                records.append(record)
                healthy = healthy and record["correct"]
                print(format_record(record), flush=True)
    result = {"seed": args.seed, "seconds": seconds, "quick": args.quick, "records": records}
    if args.out:
        args.out.write_text(json.dumps(result, indent=1))
    print(summary(records))
    print("all output checks passed" if healthy else "OUTPUT CHECK FAILED")
    return 0 if healthy else 1


def summary(records: list[dict[str, Any]]) -> str:
    """Every end-to-end metric across the set's untraced runs."""
    lines = [
        f"{'metric':<28s}{'workload':<16s}{'unit':<10s}{'better':<8s}{'runs':>5s}"
        f"{'median':>14s}{'q1':>14s}{'q3':>14s}{'bound':>8s}"
    ]
    for spec in catalogue.END_TO_END:
        for workload in spec.on:
            entries = [
                r["metrics"][spec.name]
                for r in records
                if r["workload"] == workload and not r["trace"] and spec.name in r["metrics"]
            ]
            if not entries:
                continue
            if len(entries) == 1:  # one run: its own inner samples give the spread
                q1, median, q3 = entries[0]["q1"], entries[0]["value"], entries[0]["q3"]
            else:
                q1, median, q3 = stats.quartiles([entry["value"] for entry in entries])
            lines.append(
                f"{spec.name:<28s}{workload:<16s}{spec.unit:<10s}{spec.better:<8s}"
                f"{len(entries):>5d}{median:>14.4f}{q1:>14.4f}{q3:>14.4f}{spec.bound:>8.0%}"
            )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.spine")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload", action="append", choices=sorted(catalogue.WORKLOADS))
    run.add_argument("--trace", action="store_true", help="add a traced run per workload")
    run.add_argument("--out", type=Path, help="write the set here as JSON")
    run.add_argument("--seconds", type=float, help=f"per workload (default {DEFAULT_SECONDS:g})")
    run.add_argument("--repeats", type=int, default=1, help="untraced runs per workload")
    run.add_argument("--quick", action="store_true", help="tiny sizes, for self-tests")
    diff = commands.add_parser("compare", help="apply the bounds to two sets")
    diff.add_argument("a", type=Path)
    diff.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_set(args)
    return compare.main(args.a, args.b)

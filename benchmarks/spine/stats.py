"""Small statistics and bookkeeping shared by every workload."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import sys
from collections.abc import Iterable, Sequence
from typing import Any

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; one sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * pct / 100.0 - 1e-9)  # 1e-9: float drift
    return ordered[min(len(ordered), max(1, rank)) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest percentile that leaves at least ten samples beyond it."""
    supported = [
        pct
        for pct in TAIL_PERCENTILES
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND - 1e-9  # float drift
    ]
    return supported[-1] if supported else None


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the tail the sample supports.

    With too few samples for any percentile the pair is ``(0.0, max)``: the
    zero says "no percentile claimed", the value is the worst case seen.
    """
    pct = tail_percentile(len(values))
    if pct is None:
        return 0.0, max(values)
    return pct, percentile(values, pct)


def metric(
    unit: str, better: str, samples: Sequence[float], *, value: float | None = None
) -> dict[str, Any]:
    """One reported metric: the median of ``samples`` with its spread.

    ``value`` overrides the median for metrics defined over the whole run
    (a throughput is total work over total time, not a median of windows);
    the samples still give the spread.
    """
    q1, median, q3 = quartiles(samples)
    return {
        "value": median if value is None else value,
        "unit": unit,
        "better": better,
        "n": len(samples),
        "q1": q1,
        "q3": q3,
    }


def digest(parts: Iterable[bytes | str]) -> str:
    """sha256 over a sequence of byte strings, length-prefixed."""
    hasher = hashlib.sha256()
    for part in parts:
        data = part.encode() if isinstance(part, str) else part
        hasher.update(len(data).to_bytes(4, "big"))
        hasher.update(data)
    return hasher.hexdigest()


def host_fingerprint() -> dict[str, Any]:
    """Where a result was measured; compared by eye, never gated."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "loadavg_1m": os.getloadavg()[0],
    }

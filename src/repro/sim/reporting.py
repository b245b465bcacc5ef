"""Result serialization and text rendering.

Experiment outputs are plain dataclasses; this module turns them into JSON
records (for archiving sweeps, diffing runs across machines, shipping results
back from engine worker processes, and the on-disk result cache) and renders
quick ASCII charts so the figures are inspectable without a plotting stack.

The records are :mod:`repro.serde`'s, derived from the dataclass
declarations, and round-trip: ``from_json(RunResult, to_json(r))``
reconstructs every metric field exactly (floats survive because ``json``
serializes them via ``repr``).  Only the live simulation objects —
``RunResult.observer`` and ``RunResult.pbft``, marked ``NOT_ON_WIRE`` where
they are declared — are dropped; they hold the whole simulator graph and
never cross a process or cache boundary.
"""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Mapping, Sequence

from repro.errors import SimulationError
from repro.serde import to_json
from repro.sim.runner import RunResult


def save_results(results: Sequence[RunResult], path: str | Path) -> Path:
    """Write a list of run records as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [to_json(r) for r in results]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
    logy: bool = False,
) -> str:
    """Render one or more numeric series as a crude ASCII line chart.

    Each series gets a marker character; points are binned onto a
    ``width × height`` grid.  Useful for eyeballing Fig. 4/5-style decay
    curves in a terminal.
    """
    import math

    if not series:
        raise SimulationError("nothing to chart")
    markers = "*o+x#@%&"
    values = [v for s in series.values() for v in s]
    if not values:
        raise SimulationError("series are empty")
    if logy:
        floor = min(v for v in values if v > 0) if any(v > 0 for v in values) else 1e-12
        transform = lambda v: math.log10(max(v, floor))
    else:
        transform = lambda v: v
    lo = min(transform(v) for v in values)
    hi = max(transform(v) for v in values)
    span = (hi - lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        n = len(points)
        for i, value in enumerate(points):
            x = round(i * (width - 1) / max(1, n - 1))
            y = round((transform(value) - lo) / span * (height - 1))
            grid[height - 1 - y][x] = marker
    lines = ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    legend = "  ".join(
        f"{markers[i % len(markers)]} {name}" for i, name in enumerate(series)
    )
    lines.append(legend + ("   (log y)" if logy else ""))
    return "\n".join(lines)


def summary_line(result: RunResult) -> str:
    """One-line human summary of a run."""
    cfg = result.config
    fork = (
        f"fork {100 * result.fork.fork_rate:.2f}%/{result.fork.longest_duration}"
        if result.fork
        else "fork n/a"
    )
    eq = f"{result.equality[-1]:.2e}" if result.equality else "n/a"
    return (
        f"{cfg.algorithm:>12s} n={cfg.n:<4d} seed={cfg.seed:<3d} "
        f"tps={result.tps:8.1f} σ_f²={eq} {fork} "
        f"msgs={result.network.messages_sent}"
    )

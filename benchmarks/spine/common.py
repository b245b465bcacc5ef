"""What every workload module shares: the outcome record and scratch space."""

from __future__ import annotations

import contextlib
import shutil
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # the untraced run never imports trace.py
    from benchmarks.spine.trace import Tracer

#: Checkout root; scratch files stay inside it (``.gitignore`` names the dir).
ROOT = Path(__file__).resolve().parents[2]
SCRATCH = ROOT / ".bench_tmp"


@dataclass
class Outcome:
    """What one workload run hands back to the runner.

    Attributes:
        setup_samples: wall seconds of each repetition of the repeatable
            set-up (input generation, warm-up, boot); the runner adds the
            one-off import time to their median.
        metrics: named end-to-end metrics (``stats.metric`` records).
        layer: per-layer counters, filled on traced runs only.
        checks: output checks by name; any ``False`` fails the workload.
        attempted / failed: operations tried and operations that failed.
        inputs_digest: sha256 over the generated inputs.
        digests: other values two runs of one seed must agree on exactly.
        timed_s: wall seconds of the timed part.
        traced_wall_s: what the boundaries' self times should add up to on a
            traced run (wall for sim/store, process CPU for live).
        overhead_pair: ``(untraced, traced)`` readings of the primary metric
            taken inside one traced run, both "lower is better".
    """

    setup_samples: list[float] = field(default_factory=list)
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    inputs_digest: str = ""
    digests: dict[str, str] = field(default_factory=dict)
    timed_s: float = 0.0
    traced_wall_s: float = 0.0
    overhead_pair: tuple[float, float] | None = None


def span(tracer: Tracer | None, name: str) -> contextlib.AbstractContextManager[None]:
    """A harness span on traced runs, nothing otherwise."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@contextlib.contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory under the checkout, removed on exit."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only succeeds once the last run has left

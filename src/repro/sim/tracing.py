"""Event tracing for simulated runs.

A :class:`Tracer` collects timestamped, typed events (block produced, block
accepted, reorg, view change, ...) from any component that cares to emit
them, and answers the questions post-mortems ask: what happened around time
t, how often did X occur, what's the timeline of one block.  Tracing is
opt-in and costs nothing when no tracer is installed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import Any

from repro.errors import SimulationError


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    node_id: int
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.3f}] node {self.node_id:<3d} {self.kind:<18s} {extra}"


class Tracer:
    """An append-only, queryable event log.

    Attributes:
        capacity: maximum retained events; the oldest are dropped beyond it
            (long runs emit millions of events — keep the tail).
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise SimulationError("capacity must be positive")
        self.capacity = capacity
        self._events: list[TraceEvent] = []
        self._dropped = 0

    def emit(self, time: float, node_id: int, kind: str, **detail: Any) -> None:
        """Record one event."""
        if len(self._events) >= self.capacity:
            # Drop the oldest half in one amortized slice.
            keep = self.capacity // 2
            self._dropped += len(self._events) - keep
            self._events = self._events[-keep:]
        self._events.append(TraceEvent(time, node_id, kind, detail))

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events discarded due to the capacity bound."""
        return self._dropped

    def events(
        self,
        kind: str | None = None,
        node_id: int | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[TraceEvent]:
        """Filtered view of the log."""
        out = []
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if node_id is not None and event.node_id != node_id:
                continue
            if since is not None and event.time < since:
                continue
            if until is not None and event.time > until:
                continue
            out.append(event)
        return out

    def counts_by_kind(self) -> Counter:
        """Event histogram."""
        return Counter(e.kind for e in self._events)

    def timeline(self, limit: int = 50, **filters: Any) -> str:
        """Render the (filtered) tail of the log as text."""
        selected = self.events(**filters)[-limit:]
        return "\n".join(str(e) for e in selected)


def attach_tracer(nodes: Iterable[Any], tracer: Tracer | None = None) -> Tracer:
    """Install one shared tracer on a fleet of nodes; returns it."""
    tracer = tracer or Tracer()
    for node in nodes:
        node.tracer = tracer
    return tracer


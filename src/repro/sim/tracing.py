"""Event tracing for simulated runs.

A :class:`Tracer` subscribes to nodes' block-path events
(``node.observers.append(tracer)``) and answers the questions post-mortems
ask: what happened around time t, how often did X occur, what's the
timeline of one block.  A node without observers builds no event at all.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.chain.block import Block
from repro.consensus.powfamily import MiningNode
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
            drop = len(self._events) - self.capacity // 2
            self._dropped += drop
            self._events = self._events[drop:]
        self._events.append(TraceEvent(time, node_id, kind, detail))

    def __call__(self, node: MiningNode, kind: str, block: Block, reason: str | None) -> None:
        """Record one node event (:data:`~repro.consensus.powfamily.NodeObserver`)."""
        detail: dict[str, Any] = {"height": block.height, "block": block.block_id.hex()[:10]}
        if kind == "block/produced":
            detail["difficulty"] = round(block.header.difficulty, 3)
        elif kind == "block/rejected":
            detail["reason"] = reason
        elif kind == "chain/reorg":
            detail["new_head"] = node.state.head_id.hex()[:10]
        self.emit(node.ctx.sim.now, node.node_id, kind, **detail)

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
        selected = self.events(**filters)
        selected = selected[max(0, len(selected) - limit) :]
        return "\n".join(str(e) for e in selected)

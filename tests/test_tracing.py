"""Tests for event tracing."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.tracing import TraceEvent, Tracer, attach_tracer

from tests.test_powfamily import make_fleet, run_to_height


class TestTracer:
    def test_emit_and_query(self):
        tracer = Tracer()
        tracer.emit(1.0, 0, "block/produced", height=1)
        tracer.emit(2.0, 1, "chain/reorg", height=1)
        assert len(tracer) == 2
        assert len(tracer.events(kind="chain/reorg")) == 1
        assert len(tracer.events(node_id=0)) == 1
        assert len(tracer.events(since=1.5)) == 1
        assert len(tracer.events(until=1.5)) == 1

    def test_counts_by_kind(self):
        tracer = Tracer()
        for _ in range(3):
            tracer.emit(0.0, 0, "a")
        tracer.emit(0.0, 0, "b")
        assert tracer.counts_by_kind() == {"a": 3, "b": 1}

    def test_capacity_drops_oldest(self):
        tracer = Tracer(capacity=10)
        for i in range(25):
            tracer.emit(float(i), 0, "e", i=i)
        assert len(tracer) <= 10
        assert tracer.dropped > 0
        # The newest events survive.
        assert tracer.events()[-1].detail["i"] == 24

    def test_capacity_of_one_keeps_the_newest(self):
        """Half of capacity 1 is 0, and ``events[-0:]`` keeps everything."""
        tracer = Tracer(capacity=1)
        for i in range(5):
            tracer.emit(float(i), 0, "e", i=i)
        assert [e.detail["i"] for e in tracer.events()] == [4]
        assert tracer.dropped == 4

    def test_timeline_limit_zero_is_empty(self):
        tracer = Tracer()
        for i in range(3):
            tracer.emit(float(i), 0, "e", i=i)
        assert tracer.timeline(limit=0) == ""
        assert tracer.timeline(limit=2).count("\n") == 1

    def test_timeline_renders(self):
        tracer = Tracer()
        tracer.emit(1.25, 3, "block/produced", height=7)
        text = tracer.timeline()
        assert "block/produced" in text and "node 3" in text

    def test_event_str(self):
        event = TraceEvent(1.0, 2, "k", {"x": 1})
        assert "x=1" in str(event)

    def test_validation(self):
        with pytest.raises(SimulationError):
            Tracer(capacity=0)


class TestNodeIntegration:
    def test_fleet_emits_lifecycle_events(self):
        ctx, nodes = make_fleet(4, seed=5)
        tracer = attach_tracer(nodes)
        run_to_height(ctx, nodes, 15)
        counts = tracer.counts_by_kind()
        assert counts["block/produced"] >= 15
        # Every produced event carries height and difficulty details.
        event = tracer.events(kind="block/produced")[0]
        assert "height" in event.detail and "difficulty" in event.detail

    def test_rejection_traced(self):
        from repro.chain.block import build_block
        from tests.conftest import keypair

        ctx, nodes = make_fleet(4, seed=5)
        tracer = attach_tracer(nodes)
        for node in nodes:
            node.start()
        ctx.sim.run(stop_when=lambda: nodes[0].state.height() >= 3)
        head = nodes[1].state.head_block()
        forged = build_block(
            keypair(0), head.block_id, head.height + 1, [], ctx.sim.now, 1.0, 9e9, 0
        )
        nodes[1]._handle_block(forged)
        rejections = tracer.events(kind="block/rejected")
        assert rejections
        assert "base" in rejections[0].detail["reason"]

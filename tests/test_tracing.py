"""Tests for event tracing and the node event hook it subscribes to."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.consensus.powfamily import MiningNode, themis_config
from repro.errors import SimulationError
from repro.sim.fleet import build_stack
from repro.sim.tracing import TraceEvent, Tracer

from tests import test_transport_parity
from tests.conftest import FAST, TEST_FLEET


def subscribe(nodes, *observers):
    """Append ``observers`` to every node's subscriber list."""
    for node in nodes:
        node.observers.extend(observers)


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
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=5, params=FAST, **TEST_FLEET)
        tracer = Tracer()
        subscribe(stack.nodes, tracer)
        stack.run_to_height(15)
        counts = tracer.counts_by_kind()
        assert counts["block/produced"] >= 15
        # Every produced event carries height and difficulty details.
        event = tracer.events(kind="block/produced")[0]
        assert "height" in event.detail and "difficulty" in event.detail

    def test_rejection_traced(self):
        from repro.chain.block import build_block
        from tests.conftest import keypair

        stack = build_stack(MiningNode, [themis_config()] * 4, seed=5, params=FAST, **TEST_FLEET)
        tracer = Tracer()
        subscribe(stack.nodes, tracer)
        for node in stack.nodes:
            node.start()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 3)
        head = stack.nodes[1].state.head_block()
        forged = build_block(
            keypair(0), head.block_id, head.height + 1, [], stack.sim.now, 1.0, 9e9, 0
        )
        stack.nodes[1]._handle_block(forged)
        rejections = tracer.events(kind="block/rejected")
        assert rejections
        assert "base" in rejections[0].detail["reason"]

    def test_nodes_have_no_subscribers_by_default(self):
        stack = build_stack(MiningNode, [themis_config()] * 2, seed=1, params=FAST, **TEST_FLEET)
        assert [node.observers for node in stack.nodes] == [[], []]


def test_subscribers_change_nothing():
    """A tracer and a counting subscriber on every node leave the golden
    chain and the event count as they are, and see every block the node
    counts as accepted or rejected."""
    plain = test_transport_parity.golden_chain_fleet()
    assert test_transport_parity._chain_hash(plain) == test_transport_parity.GOLDEN_CHAIN_SHA256

    tracer = Tracer(capacity=10**6)
    counts: Counter = Counter()

    def count(node, kind, block, reason):
        counts[node.node_id, kind] += 1

    stack = test_transport_parity.golden_chain_fleet()
    subscribe(stack.nodes, tracer, count)
    assert test_transport_parity._chain_hash(stack) == test_transport_parity.GOLDEN_CHAIN_SHA256
    assert stack.sim.events_processed == plain.sim.events_processed
    assert tracer.dropped == 0
    traced = Counter((event.node_id, event.kind) for event in tracer.events())
    assert traced == counts
    for node in stack.nodes:
        assert traced[node.node_id, "block/accepted"] == node.stats.blocks_accepted > 0
        assert traced[node.node_id, "block/rejected"] == node.stats.blocks_rejected
        assert traced[node.node_id, "block/produced"] == node.stats.blocks_produced
        assert traced[node.node_id, "chain/reorg"] == node.stats.reorgs

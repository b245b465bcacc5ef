"""Tests for the simulated network: timing, gossip, attack hooks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.net.latency import LinkModel
from repro.net.message import KIND_TX, MESSAGE_OVERHEAD_BYTES, Message
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology, overlay_topology
from repro.net.transport import relay_targets

from tests.conftest import ks_one_sample


def ring(n: int) -> dict[int, list[int]]:
    """A plain cycle: the longest gossip path for its size."""
    return {node: sorted({(node - 1) % n, (node + 1) % n}) for node in range(n)}


def make_net(n: int = 4, topology=None, link=None, seed: int = 0):
    sim = Simulator(seed=seed)
    net = SimulatedNetwork(sim=sim, adjacency=topology or complete_topology(n), link=link or LinkModel())
    return sim, net


def msg(origin: int = 0, size: int = 1000, kind: str = "block") -> Message:
    return Message(kind=kind, payload=None, body_size=size, origin=origin)


class TestLinkModel:
    def test_serialization_time(self):
        link = LinkModel(bandwidth_bps=20_000_000)
        assert link.serialization_time(2_500_000) == pytest.approx(1.0)

    def test_jitter_bounded(self):
        link = LinkModel(min_delay=0.1, jitter=0.05)
        sim = Simulator(seed=3)
        for _ in range(100):
            delay = link.propagation_delay(sim.rng)
            assert 0.1 <= delay <= 0.15

    def test_jitter_is_uniform(self):
        """5,000 delays against U[min, min + jitter]: KS p-value well above 1 %."""
        link = LinkModel(min_delay=0.1, jitter=0.05)
        sim = Simulator(seed=4)
        delays = [link.propagation_delay(sim.rng) for _ in range(5000)]
        assert ks_one_sample(delays, lambda x: min(1.0, max(0.0, (x - 0.1) / 0.05))) > 0.01

    def test_validation(self):
        with pytest.raises(NetworkError):
            LinkModel(bandwidth_bps=0)
        with pytest.raises(NetworkError):
            LinkModel(min_delay=-1)


class TestUnicast:
    def test_delivery_time(self):
        sim, net = make_net()
        link = net.link
        arrivals = []
        net.attach(1, lambda m, f: arrivals.append((sim.now, f)))
        message = msg(size=1000)
        net.unicast(0, 1, message)
        sim.run()
        expected = link.serialization_time(message.size) + link.min_delay
        assert arrivals[0][0] == pytest.approx(expected)
        assert arrivals[0][1] == 0

    def test_uplink_queueing_serializes_sends(self):
        """Two back-to-back sends from one node share its uplink (§VII-A)."""
        sim, net = make_net()
        arrivals = []
        net.attach(1, lambda m, f: arrivals.append(sim.now))
        net.attach(2, lambda m, f: arrivals.append(sim.now))
        message = msg(size=2_500_000 - MESSAGE_OVERHEAD_BYTES)  # 1 s each
        net.unicast(0, 1, message)
        net.unicast(0, 2, msg(size=2_500_000 - MESSAGE_OVERHEAD_BYTES))
        sim.run()
        assert arrivals[0] == pytest.approx(1.0 + 0.1)
        assert arrivals[1] == pytest.approx(2.0 + 0.1)  # queued behind the first

    def test_unattached_destination_dropped(self):
        sim, net = make_net()
        net.unicast(0, 1, msg())  # no handler attached
        sim.run()  # no raise
        assert net.stats.messages_delivered == 0

    def test_attach_unknown_node_rejected(self):
        _, net = make_net()
        with pytest.raises(NetworkError):
            net.attach(99, lambda m, f: None)


class TestGossip:
    def test_floods_entire_overlay(self):
        sim, net = make_net(topology=ring(8))
        reached = set()

        def handler(i):
            def on_message(m, f):
                if net.gossip_deliver(i, f, m):
                    reached.add(i)

            return on_message

        for i in range(8):
            net.attach(i, handler(i))
        net.gossip(0, msg(origin=0))
        sim.run()
        assert reached == {1, 2, 3, 4, 5, 6, 7}

    def test_dedup_delivers_once(self):
        sim, net = make_net(4)
        deliveries = {i: 0 for i in range(4)}

        def handler(i):
            def on_message(m, f):
                if net.gossip_deliver(i, f, m):
                    deliveries[i] += 1

            return on_message

        for i in range(4):
            net.attach(i, handler(i))
        net.gossip(0, msg(origin=0))
        sim.run()
        assert all(count == 1 for node, count in deliveries.items() if node != 0)

    def test_farther_nodes_receive_later(self):
        sim, net = make_net(topology=ring(8))
        times = {}

        def handler(i):
            def on_message(m, f):
                if net.gossip_deliver(i, f, m):
                    times[i] = sim.now

            return on_message

        for i in range(8):
            net.attach(i, handler(i))
        net.gossip(0, msg(origin=0))
        sim.run()
        assert times[1] < times[2] < times[3]
        assert times[4] == max(times.values())  # diametrically opposite


class TestRelayRule:
    """The simulator relays by the live tier's rule: a ``tx`` straight from
    its origin skips the origin's neighbours.  While it flooded every kind,
    a complete overlay cost (n − 1)² sends per transaction."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 30), degree=st.integers(2, 8), seed=st.integers(0, 2**16))
    def test_a_transaction_reaches_every_member_once_at_the_rules_cost(self, n, degree, seed):
        adjacency = overlay_topology(n, degree, seed=seed)
        sim, net = make_net(topology=adjacency, link=LinkModel(jitter=0.05), seed=seed)
        accepted: dict[tuple[int, int], int] = {}  # (msg_id, node) -> from_peer

        def handler(node):
            def on_message(message, from_peer):
                if net.gossip_deliver(node, from_peer, message):
                    assert (message.msg_id, node) not in accepted
                    accepted[message.msg_id, node] = from_peer

            return on_message

        for node in adjacency:
            net.attach(node, handler(node))
        txs = [msg(origin=origin, size=512, kind=KIND_TX) for origin in adjacency]
        for tx in txs:
            net.gossip(tx.origin, tx)
        sim.run()
        expected = 0
        for tx in txs:
            others = set(adjacency) - {tx.origin}
            assert {node for (msg_id, node) in accepted if msg_id == tx.msg_id} == others
            expected += len(relay_targets(adjacency, tx.origin, tx, None))
            expected += sum(
                len(relay_targets(adjacency, node, tx, accepted[tx.msg_id, node]))
                for node in others
            )
        sends = net.stats.messages_by_kind[KIND_TX]
        assert sends == expected
        if all(len(peers) == n - 1 for peers in adjacency.values()):
            assert sends == n * (n - 1)  # n − 1 per transaction


class TestAttackHooks:
    def test_drop_filter_suppresses_outbound(self):
        sim, net = make_net(3)
        got = []
        for i in range(3):
            net.attach(i, lambda m, f: got.append((i, m.kind)))
        net.set_drop_filter(0, lambda m: m.kind == "block")
        net.unicast(0, 1, msg(kind="block"))
        net.unicast(0, 1, msg(kind="tx"))
        sim.run()
        kinds = [kind for _, kind in got]
        assert kinds == ["tx"]

    def test_drop_filter_clearable(self):
        sim, net = make_net(3)
        got = []
        net.attach(1, lambda m, f: got.append(m))
        net.set_drop_filter(0, lambda m: True)
        net.set_drop_filter(0, None)
        net.unicast(0, 1, msg())
        sim.run()
        assert len(got) == 1

    def test_offline_node_isolated(self):
        sim, net = make_net(3)
        got = []
        net.attach(1, lambda m, f: got.append(m))
        net.set_offline(1, True)
        net.unicast(0, 1, msg())
        sim.run()
        assert got == []
        net.set_offline(1, False)
        net.unicast(0, 1, msg())
        sim.run()
        assert len(got) == 1


class TestStats:
    def test_counters(self):
        sim, net = make_net(3)
        net.attach(1, lambda m, f: None)
        message = msg(size=1000, kind="block")
        net.unicast(0, 1, message)
        sim.run()
        assert net.stats.messages_sent == 1
        assert net.stats.bytes_sent == message.size
        assert net.stats.bytes_by_kind["block"] == message.size
        assert net.stats.messages_delivered == 1

    def test_message_size_includes_overhead(self):
        message = msg(size=100)
        assert message.size == 100 + MESSAGE_OVERHEAD_BYTES

    def test_uplink_backlog(self):
        sim, net = make_net()
        net.attach(1, lambda m, f: None)
        net.unicast(0, 1, msg(size=2_500_000))
        assert net.uplink_backlog(0) > 0.9

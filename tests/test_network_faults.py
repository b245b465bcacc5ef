"""Tests for network fault machinery: drop accounting, link disturbances,
gossip dedup under duplication/reordering, and simulator event cancellation."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net.latency import LinkModel
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology
from repro.net.transport import LinkDisturbance


def make_net(n=3, seed=0, jitter=0.0, min_delay=0.05):
    sim = Simulator(seed=seed)
    network = SimulatedNetwork(
        sim=sim, adjacency=complete_topology(n),
        link=LinkModel(jitter=jitter, min_delay=min_delay),
    )
    delivered: dict[int, list[Message]] = {i: [] for i in range(n)}
    for i in range(n):
        network.attach(i, lambda msg, peer, i=i: delivered[i].append(msg))
    return sim, network, delivered


def msg(origin=0, kind="block", size=1000):
    return Message(kind=kind, payload=None, body_size=size, origin=origin)


class TestEventCancellation:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"))
        drop = sim.schedule(2.0, lambda: fired.append("drop"))
        drop.cancel()
        sim.run(until=5.0)
        assert fired == ["keep"]
        assert drop.cancelled and not keep.cancelled

    def test_cancel_is_idempotent_and_safe_after_firing(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled  # flag only; the event already ran

    def test_cancelled_timer_can_be_rearmed(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.schedule(1.5, lambda: fired.append(2))
        sim.run(until=3.0)
        assert fired == [2]


class TestDropAccounting:
    def test_offline_send_and_delivery_are_counted(self):
        sim, network, delivered = make_net()
        network.set_offline(1, True)
        network.unicast(0, 1, msg())
        sim.run(until=5.0)
        assert delivered[1] == []
        assert network.stats.messages_dropped == 1
        assert network.stats.drops_by_reason["offline"] == 1

    def test_partition_crossings_are_counted(self):
        sim, network, delivered = make_net()
        network.set_partition([[0], [1, 2]])
        network.unicast(0, 1, msg())
        network.unicast(1, 2, msg(origin=1))
        sim.run(until=5.0)
        assert delivered[1] == [] and len(delivered[2]) == 1
        assert network.stats.drops_by_reason["partition"] == 1

    def test_filtered_sends_are_counted(self):
        sim, network, delivered = make_net()
        network.set_drop_filter(0, lambda m: m.kind == "block")
        network.unicast(0, 1, msg(kind="block"))
        network.unicast(0, 1, msg(kind="tx"))
        sim.run(until=5.0)
        assert [m.kind for m in delivered[1]] == ["tx"]
        assert network.stats.drops_by_reason["filtered"] == 1

    def test_lossy_link_drops_are_counted(self):
        sim, network, delivered = make_net()
        network.set_link_disturbance("lossy", LinkDisturbance(loss=1.0))
        for _ in range(5):
            network.unicast(0, 1, msg())
        sim.run(until=5.0)
        assert delivered[1] == []
        assert network.stats.drops_by_reason["loss"] == 5
        assert network.stats.messages_dropped == 5


class TestLinkDisturbances:
    def test_parameter_validation(self):
        with pytest.raises(NetworkError):
            LinkDisturbance(loss=1.5)
        with pytest.raises(NetworkError):
            LinkDisturbance(duplicate=-0.1)
        with pytest.raises(NetworkError):
            LinkDisturbance(reorder_jitter=-1.0)
        with pytest.raises(NetworkError):
            LinkDisturbance(bandwidth_factor=0.5)

    def test_scoped_disturbance_only_hits_named_nodes(self):
        sim, network, delivered = make_net()
        network.set_link_disturbance("lossy", LinkDisturbance(loss=1.0), nodes=[2])
        network.unicast(0, 1, msg())  # untouched link
        network.unicast(0, 2, msg())  # destination in scope: dropped
        sim.run(until=5.0)
        assert len(delivered[1]) == 1 and delivered[2] == []

    def test_clearing_a_disturbance_restores_the_link(self):
        sim, network, delivered = make_net()
        network.set_link_disturbance("lossy", LinkDisturbance(loss=1.0))
        assert "lossy" in network.active_disturbances()
        network.set_link_disturbance("lossy", None)
        assert network.active_disturbances() == {}
        network.unicast(0, 1, msg())
        sim.run(until=5.0)
        assert len(delivered[1]) == 1

    def test_duplication_delivers_twice(self):
        sim, network, delivered = make_net()
        network.set_link_disturbance("dup", LinkDisturbance(duplicate=1.0))
        network.unicast(0, 1, msg())
        sim.run(until=5.0)
        assert len(delivered[1]) == 2
        assert network.stats.messages_duplicated == 1
        assert network.stats.messages_sent == 1  # one logical transfer

    def test_bandwidth_factor_slows_serialization(self):
        sim, network, _ = make_net()
        big = msg(size=2_000_000)
        network.unicast(0, 1, big)
        baseline = network.uplink_backlog(0)
        sim.run(until=100.0)
        network.set_link_disturbance("slow", LinkDisturbance(bandwidth_factor=3.0))
        network.unicast(0, 1, big)
        assert network.uplink_backlog(0) == pytest.approx(3.0 * baseline)

    def test_reorder_jitter_breaks_fifo_ordering(self):
        sim, network, delivered = make_net(seed=1)
        network.set_link_disturbance("jittery", LinkDisturbance(reorder_jitter=5.0))
        sent = [msg(size=100) for _ in range(10)]
        for m in sent:
            network.unicast(0, 1, m)
        sim.run(until=60.0)
        assert len(delivered[1]) == 10  # nothing lost, only shuffled
        assert [m.msg_id for m in delivered[1]] != [m.msg_id for m in sent]


class TestGossipDedupUnderFaults:
    def _gossip_net(self, n=4, seed=0, disturbance=None):
        sim = Simulator(seed=seed)
        network = SimulatedNetwork(
            sim=sim, adjacency=complete_topology(n), link=LinkModel(jitter=0.01)
        )
        processed: dict[int, list[int]] = {i: [] for i in range(n)}

        def handler(node_id, message, from_peer):
            if network.gossip_deliver(node_id, from_peer, message):
                processed[node_id].append(message.msg_id)

        for i in range(n):
            network.attach(i, lambda m, p, i=i: handler(i, m, p))
        if disturbance is not None:
            network.set_link_disturbance("fault", disturbance)
        return sim, network, processed

    def test_each_node_processes_once_under_duplication(self):
        sim, network, processed = self._gossip_net(
            disturbance=LinkDisturbance(duplicate=1.0)
        )
        message = msg(origin=0)
        network.gossip(0, message)
        sim.run(until=30.0)
        # Every copy of every flood arrives twice, yet dedup admits each
        # message exactly once per node.
        for node_id in (1, 2, 3):
            assert processed[node_id] == [message.msg_id]
        assert network.stats.messages_duplicated > 0

    def test_each_node_processes_once_under_reordering(self):
        sim, network, processed = self._gossip_net(
            disturbance=LinkDisturbance(reorder_jitter=2.0, duplicate=0.5)
        )
        messages = [msg(origin=0) for _ in range(5)]
        for message in messages:
            network.gossip(0, message)
        sim.run(until=60.0)
        expected = {m.msg_id for m in messages}
        for node_id in (1, 2, 3):
            assert set(processed[node_id]) == expected
            assert len(processed[node_id]) == len(expected)

    def test_flood_survives_loss_on_redundant_paths(self):
        """With per-link loss below 1, the flood's redundant paths still
        reach every node (here: enough retransmission via neighbors)."""
        sim, network, processed = self._gossip_net(
            seed=3, disturbance=LinkDisturbance(loss=0.3)
        )
        message = msg(origin=0)
        network.gossip(0, message)
        sim.run(until=30.0)
        reached = sum(1 for i in (1, 2, 3) if processed[i] == [message.msg_id])
        assert reached >= 2  # complete graph: loss must not stop the flood
        assert network.stats.drops_by_reason["loss"] >= 1

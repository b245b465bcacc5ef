"""Elision against the unelided network as oracle.

``SimulatedNetwork`` no longer schedules a flood copy it can prove is a
duplicate at its destination; ``tests/ref_network.py`` is the network that
scheduled every copy.  Driven by the same seed through the same schedule of
sends and faults, the two must be indistinguishable: same acceptances at the
same instants from the same peers, same counters at every read, same clock,
same next random number.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.latency import LinkModel
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.topology import overlay_topology
from repro.net.transport import LinkDisturbance
from repro.serde import to_json

from tests.ref_network import ReferenceNetwork

#: Point-to-point traffic (``unicast``, singly or to every other node):
#: handlers act on it directly.  Everything else goes to ``gossip_deliver`` first.
DIRECT = "direct"

#: Schedule times sit on a coarse grid and sizes come from a small set, so
#: with ``jitter == 0.0`` copies from different senders tie to the last bit.
TICK = 0.05
SIZES = (200, 1000, 5000)

ROUGH_LINK = LinkDisturbance(
    loss=0.2, duplicate=0.3, reorder_jitter=0.08, bandwidth_factor=1.5
)


def _even_ids(message: Message) -> bool:
    return message.msg_id % 2 == 0


class Harness:
    """One simulator + network with contract-following handlers and a log."""

    def __init__(self, network_cls: type, seed: int, n: int, degree: int, jitter: float):
        self.sim = Simulator(seed=seed)
        self.net = network_cls(
            sim=self.sim,
            adjacency=overlay_topology(n, degree, seed=seed),
            link=LinkModel(jitter=jitter),
        )
        self.n = n
        self.log: list[tuple[Any, ...]] = []
        for node in range(n):
            self.net.attach(node, self._handler(node))

    def _handler(self, node: int) -> Callable[[Message, int], None]:
        def on_message(message: Message, from_peer: int) -> None:
            if message.kind != DIRECT and not self.net.gossip_deliver(
                node, from_peer, message
            ):
                return
            # Every acceptance is also a read point, at an instant where
            # other arrivals tie.
            self.log.append(
                (
                    self.sim.now,
                    node,
                    message.msg_id,
                    from_peer,
                    self.sim.events_processed,
                    self.net.stats.messages_delivered,
                )
            )

        return on_message

    def read(self, label: str) -> None:
        """One read point: every counter, the event count and the clock."""
        self.log.append(
            (label, self.sim.now, to_json(self.net.stats), self.sim.events_processed)
        )

    def apply(self, op: tuple[Any, ...], messages: list[Message]) -> None:
        name, a, b = op
        net = self.net
        if name == "gossip":
            net.gossip(messages[a].origin, messages[a])
        elif name == "unicast":
            net.unicast(messages[a].origin, b % self.n, messages[a])
        elif name == "fanout":
            origin = messages[a].origin
            for dst in net.node_ids:
                if dst != origin:
                    net.unicast(origin, dst, messages[a])
        elif name == "offline":
            net.set_offline(a % self.n, bool(b))
        elif name == "detach":
            net.detach(a % self.n)
        elif name == "attach":
            net.attach(a % self.n, self._handler(a % self.n))
        elif name == "partition":
            cut = 1 + a % (self.n - 1)
            net.set_partition(
                [list(range(cut)), list(range(cut, self.n))] if b else None
            )
        elif name == "filter":
            net.set_drop_filter(a % self.n, _even_ids if b else None)
        elif name == "disturb":
            scope = None if a % 3 == 0 else [a % self.n, (a + 1) % self.n]
            net.set_link_disturbance("rough", ROUGH_LINK if b else None, scope)
        else:
            self.read("probe")


def run_schedule(
    network_cls: type,
    seed: int,
    n: int,
    degree: int,
    jitter: float,
    messages: list[Message],
    schedule: list[tuple[int, tuple[Any, ...]]],
) -> list[tuple[Any, ...]]:
    harness = Harness(network_cls, seed, n, degree, jitter)
    sim = harness.sim
    for tick, op in schedule:
        sim.schedule_at(tick * TICK, lambda op=op: harness.apply(op, messages))
    horizon = max((tick for tick, _ in schedule), default=0) * TICK
    sim.run(until=horizon / 2)
    harness.read("mid-run")
    accepted = len(harness.log)
    sim.run(stop_when=lambda: len(harness.log) >= accepted + 3)
    harness.read("stop_when")
    sim.run()
    harness.read("end")
    harness.log.append(("rng", float(sim.rng.random())))
    return harness.log


def _ops(message_count: int) -> st.SearchStrategy[tuple[Any, ...]]:
    index = st.integers(0, message_count - 1)
    node = st.integers(0, 11)
    flag = st.integers(0, 1)
    return st.one_of(
        st.tuples(st.just("gossip"), index, st.just(0)),
        st.tuples(st.just("gossip"), index, st.just(0)),
        st.tuples(st.just("unicast"), index, node),
        st.tuples(st.just("fanout"), index, st.just(0)),
        st.tuples(st.just("offline"), node, flag),
        st.tuples(st.just("detach"), node, st.just(0)),
        st.tuples(st.just("attach"), node, st.just(0)),
        st.tuples(st.just("partition"), node, flag),
        st.tuples(st.just("filter"), node, flag),
        st.tuples(st.just("disturb"), node, flag),
        st.tuples(st.just("probe"), st.just(0), st.just(0)),
    )


@st.composite
def scenarios(draw: st.DrawFn) -> dict[str, Any]:
    n = draw(st.integers(4, 12))
    message_count = draw(st.integers(1, 6))
    origins = draw(
        st.lists(st.integers(0, n - 1), min_size=message_count, max_size=message_count)
    )
    sizes = draw(
        st.lists(st.sampled_from(SIZES), min_size=message_count, max_size=message_count)
    )
    # Message 0 is always floodable; any message may also travel point-to-point
    # (a flooded kind sent by ``unicast`` still goes through ``gossip_deliver``).
    # A ``tx`` is relayed around its origin's neighbours, a ``block`` floods.
    # One Message object serves both networks, so its id is the same in both.
    kinds = [draw(st.sampled_from(["block", "tx"]))] + draw(
        st.lists(
            st.sampled_from(["block", "tx", DIRECT]),
            min_size=message_count - 1,
            max_size=message_count - 1,
        )
    )
    floodable = [i for i, kind in enumerate(kinds) if kind != DIRECT]
    # Ticks span 0.6 s, about two floods end to end, so faults and repeated
    # sends land while copies are in flight.
    raw = draw(st.lists(st.tuples(st.integers(0, 12), _ops(message_count)), max_size=60))
    schedule = [
        (tick, (name, floodable[a % len(floodable)] if name == "gossip" else a, b))
        for tick, (name, a, b) in raw
    ]
    return {
        "seed": draw(st.integers(0, 2**16)),
        "n": n,
        "degree": draw(st.integers(2, 4)),
        "jitter": draw(st.sampled_from([0.0, 0.02])),
        "specs": list(zip(kinds, sizes, origins, strict=True)),
        "schedule": schedule,
    }


def run_both(scenario: dict[str, Any]) -> tuple[list[Any], list[Any]]:
    messages = [
        Message(kind=kind, payload=None, body_size=size, origin=origin)
        for kind, size, origin in scenario["specs"]
    ]
    args = (
        scenario["seed"],
        scenario["n"],
        scenario["degree"],
        scenario["jitter"],
        messages,
        scenario["schedule"],
    )
    return run_schedule(ReferenceNetwork, *args), run_schedule(SimulatedNetwork, *args)


class TestElisionIsInvisible:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_same_log_counters_clock_and_rng_as_the_unelided_network(self, scenario):
        reference, elided = run_both(scenario)
        assert elided == reference

    def test_the_schedule_exercises_elision_and_every_fault_path(self):
        """A fixed busy scenario: copies are elided, re-scheduled and dropped."""
        scenario = {
            "seed": 3,
            "n": 10,
            "degree": 4,
            "jitter": 0.0,
            "specs": [("block", 1000, 0), ("block", 1000, 5), (DIRECT, 200, 2)],
            "schedule": [
                (0, ("gossip", 0, 0)),
                (0, ("gossip", 1, 0)),
                (1, ("disturb", 0, 1)),
                (2, ("offline", 3, 1)),
                (2, ("detach", 7, 0)),
                (3, ("gossip", 0, 0)),
                (3, ("probe", 0, 0)),
                (4, ("offline", 3, 0)),
                (4, ("attach", 7, 0)),
                (5, ("partition", 4, 1)),
                (5, ("fanout", 2, 0)),
                (6, ("gossip", 1, 0)),
                (7, ("partition", 4, 0)),
                (8, ("unicast", 2, 9)),
                (8, ("unicast", 2, 9)),  # the same message again, one in flight
                (9, ("disturb", 0, 0)),
                # Node 0's neighbours are 2, 3, 4 and 9 and have all seen
                # message 0: these copies are elided, and still 0.4–1.6 ms
                # short of arriving when 4 and 9 stop accepting.
                (10, ("gossip", 0, 0)),
                (12, ("detach", 4, 0)),
                (12, ("offline", 9, 1)),
                (12, ("gossip", 0, 0)),  # to a detached node: never elided
                (13, ("offline", 9, 0)),
                (14, ("fanout", 2, 0)),
                (14, ("fanout", 2, 0)),
                (15, ("attach", 4, 0)),
            ],
        }
        reference, elided = run_both(scenario)
        assert elided == reference
        end = next(entry for entry in elided if entry[0] == "end")
        drops = end[2]["drops_by_reason"]
        assert {"offline", "partition", "loss", "detached"} <= set(drops), drops
        assert drops["detached"] >= 2  # the re-scheduled copy and the unelided one
        assert end[2]["messages_duplicated"] > 0

    def test_a_rescheduled_copy_keeps_its_place_among_same_instant_arrivals(self):
        """Hub 0 with leaves 1–3, no jitter.  Leaf 2's copy of ``first`` is
        elided behind leaf 1's; leaf 3's copy of ``second`` is sent after it
        and arrives at the same instant.  The hub is offline while leaf 1's
        copy lands, so leaf 2's becomes the first — and must still be handled
        before ``second``, as the sequence number it took when sent says."""
        reference, elided = _hub_log(ReferenceNetwork), _hub_log(SimulatedNetwork)
        assert [entry[1:] for entry in reference[:2]] == [(0, "first", 2), (0, "second", 3)]
        assert reference[0][0] == reference[1][0]  # the same instant
        assert reference[-1][1]["drops_by_reason"] == {"offline": 1}
        assert elided == reference

    @pytest.mark.parametrize(("seed", "jitter"), [(1, 0.02), (2, 0.0)])
    def test_duplicate_flood_copies_are_not_scheduled(self, seed, jitter):
        """The point of the change: a flood schedules only the copies the
        elision rule, applied to the unelided network's copies, keeps.

        At seed 2 without jitter that is one event per node: two copies
        reach one node at the same instant, the tie goes to the one already
        queued, so the later-sent one is elided too (scheduling it would be
        correct, and wasted).  With jitter a copy sent later can overtake a
        queued one; it is not a provable duplicate and is scheduled.
        """
        copies = 4 + 11 * 3  # the origin's fan-out, then everyone else's
        sent, accepted = _one_flood(ReferenceNetwork, seed, jitter, copies)
        assert len(sent) == copies
        kept = _kept_by_elision(sent, accepted)
        if jitter == 0.0:
            assert kept == 11
        assert len(_one_flood(SimulatedNetwork, seed, jitter, copies)[0]) == kept


def _kept_by_elision(
    sent: list[tuple[int, int, float]], accepted: dict[int, int]
) -> int:
    """How many of ``sent`` — ``(event, node, arrival)`` in send order —
    survive the elision rule: a copy is elided if its node had accepted the
    message before the event that sent it, or an earlier-sent copy to it is
    due no later."""
    earliest: dict[int, float] = {}
    kept = 0
    for event, node, arrival in sent:
        if accepted[node] >= event and earliest.get(node, float("inf")) > arrival:
            kept += 1
        earliest[node] = min(earliest.get(node, float("inf")), arrival)
    return kept


def _hub_log(network_cls: type) -> list[tuple[Any, ...]]:
    sim = Simulator(seed=0)
    net = network_cls(sim=sim, adjacency={0: [1, 2, 3], 1: [0], 2: [0], 3: [0]})
    log: list[tuple[Any, ...]] = []

    def handler(node: int) -> Callable[[Message, int], None]:
        def on_message(message: Message, from_peer: int) -> None:
            if net.gossip_deliver(node, from_peer, message):
                log.append((sim.now, node, message.payload, from_peer))

        return on_message

    for node in range(4):
        net.attach(node, handler(node))
    first = Message(kind="block", payload="first", body_size=1000, origin=1)
    second = Message(kind="block", payload="second", body_size=1000, origin=3)
    sim.schedule_at(0.00, lambda: net.gossip(1, first))
    sim.schedule_at(0.01, lambda: net.gossip(2, first))
    sim.schedule_at(0.01, lambda: net.gossip(3, second))
    sim.schedule_at(0.05, lambda: net.set_offline(0, True))
    sim.schedule_at(0.105, lambda: net.set_offline(0, False))
    sim.run()
    log.append((sim.events_processed, to_json(net.stats)))
    return log


def _one_flood(
    network_cls: type, seed: int, jitter: float, copies: int
) -> tuple[list[tuple[int, int, float]], dict[int, int]]:
    """One 12-node flood from node 0: every ``Simulator.schedule`` call as
    ``(event, node, arrival)`` in call order, and the event in which each
    node accepted the message (the origin's is before every event)."""
    harness = Harness(network_cls, seed=seed, n=12, degree=4, jitter=jitter)
    sent: list[tuple[int, int, float]] = []
    sim = harness.sim
    schedule = sim.schedule

    def recording_schedule(delay: float, callback: Callable[[], None]) -> Any:
        sent.append((sim.events_processed, callback.args[0], sim.now + delay))
        return schedule(delay, callback)

    sim.schedule = recording_schedule  # type: ignore[method-assign]
    harness.net.gossip(0, Message(kind="block", payload=None, body_size=1000, origin=0))
    sim.run()
    assert len(harness.log) == 11  # every other node accepted it once
    assert sim.events_processed == copies
    assert harness.net.stats.messages_delivered == copies
    accepted = {node: event for _, node, _, _, event, _ in harness.log}
    return sent, {0: -1, **accepted}

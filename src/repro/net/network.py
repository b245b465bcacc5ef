"""The simulated peer-to-peer network: unicast and gossip.

§VII-A: "data transmission between nodes adopts basic Gossip protocol".  The
network gossips messages over the overlay with per-node deduplication: a
node that sees a message id for the first time delivers it to its handler
and relays it by the rule both transports share
(:func:`~repro.net.transport.relay_targets`: blocks flood to every other
neighbour, a transaction skips its origin's neighbours).  Outbound
transfers from one node share that node's 20 Mbps uplink and queue behind
each other, so big blocks and chatty protocols (PBFT at large n) pay real
bandwidth costs.

Attack hooks: per-node outbound drop filters model *vulnerable nodes* that
are "prevented from putting the produced blocks into the main chain"
(§VII-A), and full partitions model crashed peers.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from collections.abc import Iterable, Sequence
from functools import partial

from repro.errors import NetworkError
from repro.net.latency import LinkModel
from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.net.simulator import Simulator
from repro.net.transport import (
    DropFilter,
    Handler,
    LinkDisturbance,
    NetworkStats,
    relay_targets,
)

#: Remembered copies are settled once this many pile up (or twice what was
#: still in flight after the last settle), so the list stays short.
_SETTLE_BOUND = 4096
_NEVER = float("inf")  # when a delivery that is not queued arrives
#: Seen bitmaps widen together, by this many bytes (8 messages each).
_SEEN_GROWTH = 256


class _RememberedCopies:
    """Flood copies remembered instead of scheduled (see
    :meth:`SimulatedNetwork._send`), and how many of them were counted.

    The simulator reads the count into its ``events_processed``; this holds
    the simulator only weakly (called only while it is alive), so neither
    it nor the network is on a reference cycle through the other.
    """

    __slots__ = ("copies", "counted", "_stats", "_sim")

    def __init__(self, sim: Simulator, stats: NetworkStats) -> None:
        self.copies: list[tuple[float, int, int, int, Message]] = []
        self.counted = 0
        self._stats = stats
        self._sim = weakref.ref(sim)

    def settle(self) -> int:
        """Count the copies whose turn has passed; the total so far."""
        sim = self._sim()
        assert sim is not None  # the simulator calls this, or a network holding it
        position = sim.position
        in_flight = [copy for copy in self.copies if copy > position]
        passed = len(self.copies) - len(in_flight)
        self.copies[:] = in_flight  # in place: a running ``_send`` holds ``append``
        self._stats.messages_delivered += passed
        self.counted += passed
        return self.counted


class SimulatedNetwork:
    """Gossip overlay on top of the discrete-event simulator.

    One of the two :class:`~repro.net.transport.Transport` backends, and
    the one implementing every chaos hook; see ``docs/transport.md``.
    """

    def __init__(
        self,
        *,
        sim: Simulator,
        adjacency: dict[int, list[int]],
        link: LinkModel | None = None,
    ) -> None:
        self.sim = sim
        self.adjacency = adjacency
        self.link = link or LinkModel()
        # Hot-path constants hoisted out of the per-hop transmit: the link
        # model is immutable and the simulator's generator never changes, so
        # the field loads and method dispatch can be paid once here.
        self._inv_bandwidth = 8.0 / self.link.bandwidth_bps
        self._min_delay = self.link.min_delay
        self._jitter = self.link.jitter
        self._rng_random = sim.rng.random
        self._handlers: dict[int, Handler] = {}
        self._uplink_free: dict[int, float] = defaultdict(float)
        # Gossip dedup: each flooded message gets the next run-relative
        # index on first sight, and each node a bitmap over those indices
        # (all as wide as ``_blank``, a new node's bitmap; see ``_seen_slot``).
        self._msg_index: dict[int, int] = {}
        self._blank = bytearray(_SEEN_GROWTH)
        self._seen: dict[int, bytearray] = defaultdict(self._blank.copy)
        # Elision (see ``_send``): per destination, when the earliest queued
        # delivery of each not-yet-seen flood message arrives; and the copies
        # ``(arrival, seq, dst, src, message)`` remembered but not yet counted.
        self._due: dict[int, dict[int, float]] = defaultdict(dict)
        self._settle_at = _SETTLE_BOUND
        self._drop_filters: dict[int, DropFilter] = {}
        self._offline: set[int] = set()
        self._partition: dict[int, int] | None = None
        self._disturbances: dict[str, tuple[frozenset[int] | None, LinkDisturbance]] = {}
        self._stats = NetworkStats()
        remembered = _RememberedCopies(sim, self._stats)
        self._elided = remembered.copies
        self._settle = remembered.settle
        sim.uncalled_counts.append(self._settle)

    @property
    def stats(self) -> NetworkStats:
        """The traffic counters, every copy whose turn has passed counted in."""
        self._settle()
        return self._stats

    def forget_floods(self) -> None:
        """Settle the counters, then drop the per-message flood state.

        For a finished run: the message index, the seen bitmaps, the due
        maps and the remembered copies (whose turn never comes) are read by
        nothing after it, and the copies would keep their blocks alive.
        """
        self._settle()
        self._msg_index.clear()
        self._seen.clear()
        self._due.clear()
        self._elided.clear()

    # -- membership -------------------------------------------------------------

    def attach(self, node_id: int, handler: Handler) -> None:
        """Register a node's delivery handler."""
        if node_id not in self.adjacency:
            raise NetworkError(f"node {node_id} not in topology")
        self._handlers[node_id] = handler

    def detach(self, node_id: int) -> None:
        """Remove a node's handler (it still forwards nothing afterwards)."""
        self._stop_accepting(node_id)
        self._handlers.pop(node_id, None)

    @property
    def node_ids(self) -> list[int]:
        """All attached node ids."""
        return sorted(self._handlers)

    def neighbors(self, node_id: int) -> list[int]:
        """The node's overlay neighbors (sorted by topology construction)."""
        return list(self.adjacency.get(node_id, []))

    # -- attack hooks --------------------------------------------------------------

    def set_drop_filter(self, node_id: int, drop: DropFilter | None) -> None:
        """Install (or clear) an outbound drop filter on a node.

        Used by the vulnerable-node attack (Fig. 7): the victim's own block
        announcements are suppressed while everything else flows normally.
        """
        if drop is None:
            self._drop_filters.pop(node_id, None)
        else:
            self._drop_filters[node_id] = drop

    def set_offline(self, node_id: int, offline: bool) -> None:
        """Fully partition a node (no sends, no deliveries)."""
        if offline:
            self._stop_accepting(node_id)
            self._offline.add(node_id)
        else:
            self._offline.discard(node_id)

    def is_offline(self, node_id: int) -> bool:
        return node_id in self._offline

    def set_partition(self, groups: list[list[int]] | None) -> None:
        """Partition the network: messages between groups are dropped.

        Pass a list of disjoint node-id groups to split the overlay (nodes
        not listed keep full connectivity with every group — put every node
        in a group for a clean split), or ``None`` to heal the partition.
        Used by convergence tests: after healing, fork choice reorganizes
        both sides onto one chain (Prop. 1's setting under the worst-case
        delay δ).
        """
        if groups is None:
            self._partition = None
            return
        assignment: dict[int, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                if node in assignment:
                    raise NetworkError(f"node {node} in two partition groups")
                assignment[node] = index
        self._partition = assignment

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if self._partition is None:
            return False
        src_group = self._partition.get(src)
        dst_group = self._partition.get(dst)
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group

    @property
    def partition_map(self) -> dict[int, int] | None:
        """Current node → partition-group assignment (``None`` when healed)."""
        return dict(self._partition) if self._partition is not None else None

    def set_link_disturbance(
        self,
        name: str,
        disturbance: LinkDisturbance | None,
        nodes: Iterable[int] | None = None,
    ) -> None:
        """Install (or clear, with ``None``) a named link disturbance.

        The disturbance applies to every transfer whose source *or*
        destination is in ``nodes`` (every link when ``nodes`` is ``None``).
        Several named disturbances may be active at once; they compose in
        name order so replays are deterministic.
        """
        if disturbance is None:
            self._disturbances.pop(name, None)
            return
        scope = frozenset(nodes) if nodes is not None else None
        self._disturbances[name] = (scope, disturbance)

    def active_disturbances(self) -> dict[str, LinkDisturbance]:
        """Currently installed disturbances by name."""
        return {name: dist for name, (_, dist) in self._disturbances.items()}

    def _disturbances_for(self, src: int, dst: int) -> list[LinkDisturbance]:
        matched = []
        for name in sorted(self._disturbances):
            scope, disturbance = self._disturbances[name]
            if scope is None or src in scope or dst in scope:
                matched.append(disturbance)
        return matched

    # -- transmission ----------------------------------------------------------------

    def _send(
        self,
        src: int,
        dsts: Sequence[int],
        message: Message,
        seen_slot: tuple[int, int] | None = None,
    ) -> None:
        """Queue one transfer per destination on ``src``'s uplink.

        The hot path — every hop of every message — so what one fan-out's
        copies share is computed once and an unarmed chaos hook costs a branch.

        A *flood* copy (``gossip`` / ``gossip_deliver``, never ``unicast``;
        they pass the message's ``seen_slot``, see :meth:`_seen_slot`) is a
        provable duplicate when its attached destination
        (S) has seen the message or (D) has a delivery of it queued that
        arrives no later: under the handler contract
        (:class:`~repro.net.transport.Transport`) it would be turned away.
        It passes every hook, takes its uplink slot and makes its draws like
        any copy, but is remembered, not scheduled, and counted once its turn
        in the event order has passed (:meth:`_settle`).
        """
        sim, stats, offline = self.sim, self._stats, self._offline
        now = sim.now
        partitioned = self._partition is not None
        drop = self._drop_filters.get(src) if self._drop_filters else None
        accepting = self._handlers if seen_slot is not None else ()
        seen_by, due_by, remember = self._seen, self._due, self._elided.append
        schedule, deliver = sim.schedule, self._deliver
        msg_id = message.msg_id
        byte, bit = seen_slot or (0, 0)
        min_delay, jitter, rng_random = self._min_delay, self._jitter, self._rng_random
        size = message.body_size + MESSAGE_OVERHEAD_BYTES
        base = size * self._inv_bandwidth
        serialization, extra_jitter, duplicated = base, 0.0, False
        finish = max(now, self._uplink_free[src])
        sent = 0
        for dst in dsts:
            if offline and (src in offline or dst in offline):
                stats.record_drop("offline")
                continue
            if partitioned and self._crosses_partition(src, dst):
                stats.record_drop("partition")
                continue
            if drop is not None and drop(message):
                stats.record_drop("filtered")
                continue
            if self._disturbances:
                disturbed = self._disturb(src, dst, base)
                if disturbed is None:
                    stats.record_drop("loss")
                    continue
                serialization, extra_jitter, duplicated = disturbed
            finish += serialization
            sent += 1
            # Inlined LinkModel.propagation_delay: same ``min + jitter·u`` draw
            # from the same stream, minus two method dispatches per hop.
            propagation = min_delay if jitter == 0.0 else min_delay + jitter * rng_random()
            arrival = finish - now + propagation + extra_jitter
            while True:
                if dst in accepting:
                    when = now + arrival
                    due = due_by[dst]
                    if seen_by[dst][byte] & bit or due.get(msg_id, _NEVER) <= when:
                        remember((when, sim.reserve(when), dst, src, message))
                    else:
                        due[msg_id] = when
                        schedule(arrival, partial(deliver, dst, src, message))
                else:
                    schedule(arrival, partial(deliver, dst, src, message))
                if not duplicated:
                    break
                # The link's copy rides the same uplink slot but its own
                # propagation draw, so it may arrive before or after.
                duplicated = False
                stats.messages_duplicated += 1
                arrival = finish - now + self.link.propagation_delay(sim.rng) + extra_jitter
        if sent:
            self._uplink_free[src] = finish
            stats.record_send(message.kind, size, sent)
            if len(self._elided) > self._settle_at:
                self._settle()
                self._settle_at = max(_SETTLE_BOUND, 2 * len(self._elided))

    def _disturb(
        self, src: int, dst: int, serialization: float
    ) -> tuple[float, float, bool] | None:
        """A transfer's ``(serialization, extra_jitter, duplicated)`` under the
        link's disturbances, or ``None`` when it is lost."""
        rng = self.sim.rng
        extra_jitter = 0.0
        duplicated = False
        for disturbance in self._disturbances_for(src, dst):
            # Draw in a fixed order per disturbance so seeded replays match.
            if disturbance.loss > 0.0 and rng.random() < disturbance.loss:
                return None
            serialization *= disturbance.bandwidth_factor
            if disturbance.reorder_jitter > 0.0:
                extra_jitter += disturbance.reorder_jitter * rng.random()
            if disturbance.duplicate > 0.0 and rng.random() < disturbance.duplicate:
                duplicated = True
        return serialization, extra_jitter, duplicated

    def _stop_accepting(self, dst: int) -> None:
        """Hand ``dst``'s in-flight remembered copies back to the ordinary path:
        from now on a copy's fate depends on when it arrives (an offline or
        detached drop, the first copy after a restart), so each becomes a real
        delivery in the place it holds, and no queued one vouches for a later."""
        self._due.pop(dst, None)
        self._settle()
        for when, seq, to, src, message in self._elided:
            if to == dst:
                self.sim.schedule_at(when, partial(self._deliver, dst, src, message), seq)
        self._elided[:] = [copy for copy in self._elided if copy[2] != dst]

    def _deliver(self, dst: int, from_peer: int, message: Message) -> None:
        if dst in self._offline:
            self._stats.record_drop("offline")
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self._stats.record_drop("detached")
            return
        self._stats.messages_delivered += 1
        handler(message, from_peer)

    def unicast(self, src: int, dst: int, message: Message) -> None:
        """Send a message point-to-point (no gossip forwarding)."""
        self._send(src, (dst,), message)

    # -- gossip ------------------------------------------------------------------------

    def _seen_slot(self, msg_id: int) -> tuple[int, int]:
        """(byte, bit) of a message in every node's seen bitmap.

        A message flooded for the first time takes the next index; when
        that runs past the bitmaps, they all widen at once.
        """
        index = self._msg_index.get(msg_id)
        if index is None:
            index = self._msg_index[msg_id] = len(self._msg_index)
            if index >> 3 == len(self._blank):
                for seen in (self._blank, *self._seen.values()):
                    seen.extend(bytes(_SEEN_GROWTH))
        return index >> 3, 1 << (index & 7)

    def gossip(self, origin: int, message: Message) -> None:
        """Gossip a message over the overlay with per-node dedup (§VII-A)."""
        byte, bit = slot = self._seen_slot(message.msg_id)
        self._seen[origin][byte] |= bit
        self._send(origin, relay_targets(self.adjacency, origin, message, None), message, slot)

    def gossip_deliver(self, dst: int, from_peer: int, message: Message) -> bool:
        """Gossip reception hook called by node handlers.

        Returns ``True`` if the message is new at ``dst`` (caller should
        process it); relaying to its :func:`relay_targets` is scheduled
        automatically.  Returns ``False`` for duplicates.
        """
        byte, bit = slot = self._seen_slot(message.msg_id)
        seen = self._seen[dst]
        if seen[byte] & bit:
            return False
        seen[byte] |= bit
        self._due[dst].pop(message.msg_id, None)  # seen now vouches instead
        self._send(dst, relay_targets(self.adjacency, dst, message, from_peer), message, slot)
        return True

    # -- introspection --------------------------------------------------------------------

    def uplink_backlog(self, node_id: int) -> float:
        """Seconds of queued outbound traffic on a node's uplink."""
        return max(0.0, self._uplink_free[node_id] - self.sim.now)

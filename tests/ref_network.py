"""Reference simulated network: every copy is an event, duplicates included.

This is the ``SimulatedNetwork`` that ``repro.net.network`` shipped before it
stopped scheduling flood copies it can prove are duplicates, kept (class
renamed, minus the methods the network has since dropped, relaying by the
one rule both transports share) as the oracle the differential test in
``test_network_elision.py`` compares against.  Every copy of every message —
the four in five that ``gossip_deliver`` then turns away included — goes
through the per-copy ``_transmit``, a ``partial``, a heap push and pop and the
destination's handler; the counters, the RNG stream and the acceptance order
it produces are what the eliding network must reproduce exactly.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
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

class ReferenceNetwork:
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
        self._seen: dict[int, set[int]] = defaultdict(set)
        self._drop_filters: dict[int, DropFilter] = {}
        self._offline: set[int] = set()
        self._partition: dict[int, int] | None = None
        self._disturbances: dict[str, tuple[frozenset[int] | None, LinkDisturbance]] = {}
        self.stats = NetworkStats()

    # -- membership -------------------------------------------------------------

    def attach(self, node_id: int, handler: Handler) -> None:
        """Register a node's delivery handler."""
        if node_id not in self.adjacency:
            raise NetworkError(f"node {node_id} not in topology")
        self._handlers[node_id] = handler

    def detach(self, node_id: int) -> None:
        """Remove a node's handler (it still forwards nothing afterwards)."""
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
            self._offline.add(node_id)
        else:
            self._offline.discard(node_id)

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

    def _transmit(self, src: int, dst: int, message: Message) -> None:
        """Queue one transfer on ``src``'s uplink and schedule the delivery.

        This is the network's hot path — every gossip hop of every message
        lands here — so the chaos hooks (offline sets, partitions, drop
        filters, disturbances) are all guarded by cheap emptiness checks
        that cost one branch when no faults are armed.
        """
        sim = self.sim
        if self._offline and (src in self._offline or dst in self._offline):
            self.stats.record_drop("offline")
            return
        if self._partition is not None and self._crosses_partition(src, dst):
            self.stats.record_drop("partition")
            return
        if self._drop_filters:
            drop = self._drop_filters.get(src)
            if drop is not None and drop(message):
                self.stats.record_drop("filtered")
                return
        size = message.body_size + MESSAGE_OVERHEAD_BYTES
        serialization = size * self._inv_bandwidth
        extra_jitter = 0.0
        duplicated = False
        if self._disturbances:
            for disturbance in self._disturbances_for(src, dst):
                # Draw in a fixed order per disturbance so seeded replays match.
                if disturbance.loss > 0.0 and sim.rng.random() < disturbance.loss:
                    self.stats.record_drop("loss")
                    return
                serialization *= disturbance.bandwidth_factor
                if disturbance.reorder_jitter > 0.0:
                    extra_jitter += disturbance.reorder_jitter * float(
                        sim.rng.random()
                    )
                if (
                    disturbance.duplicate > 0.0
                    and sim.rng.random() < disturbance.duplicate
                ):
                    duplicated = True
        now = sim.now
        start = self._uplink_free[src]
        if now > start:
            start = now
        finish = start + serialization
        self._uplink_free[src] = finish
        # Inlined LinkModel.propagation_delay: same ``min + jitter·u`` draw
        # from the same stream, minus two method dispatches per hop.
        jitter = self._jitter
        propagation = (
            self._min_delay
            if jitter == 0.0
            else self._min_delay + jitter * self._rng_random()
        )
        arrival = finish - now + propagation + extra_jitter
        self.stats.record_send(message.kind, size)
        sim.schedule(arrival, partial(self._deliver, dst, src, message))
        if duplicated:
            # The copy rides the same uplink slot but its own propagation
            # draw, so it may arrive before or after the original.
            self.stats.messages_duplicated += 1
            copy_arrival = (
                finish
                - now
                + self.link.propagation_delay(sim.rng)
                + extra_jitter
            )
            sim.schedule(copy_arrival, partial(self._deliver, dst, src, message))

    def _deliver(self, dst: int, from_peer: int, message: Message) -> None:
        if dst in self._offline:
            self.stats.record_drop("offline")
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.stats.record_drop("detached")
            return
        self.stats.messages_delivered += 1
        handler(message, from_peer)

    def unicast(self, src: int, dst: int, message: Message) -> None:
        """Send a message point-to-point (no gossip forwarding)."""
        self._transmit(src, dst, message)

    # -- gossip ------------------------------------------------------------------------

    def gossip(self, origin: int, message: Message) -> None:
        """Flood a message over the overlay with per-node dedup (§VII-A)."""
        self._seen[origin].add(message.msg_id)
        self._relay(origin, message, from_peer=None)

    def _relay(self, node_id: int, message: Message, from_peer: int | None) -> None:
        for peer in relay_targets(self.adjacency, node_id, message, from_peer):
            self._transmit(node_id, peer, message)

    def gossip_deliver(self, dst: int, from_peer: int, message: Message) -> bool:
        """Gossip reception hook called by node handlers.

        Returns ``True`` if the message is new at ``dst`` (caller should
        process it); forwarding to the remaining neighbors is scheduled
        automatically.  Returns ``False`` for duplicates.
        """
        seen = self._seen[dst]
        if message.msg_id in seen:
            return False
        seen.add(message.msg_id)
        self._relay(dst, message, from_peer)
        return True

    # -- introspection --------------------------------------------------------------------

    def uplink_backlog(self, node_id: int) -> float:
        """Seconds of queued outbound traffic on a node's uplink."""
        return max(0.0, self._uplink_free[node_id] - self.sim.now)

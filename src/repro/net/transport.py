"""The transport abstraction every node speaks through.

Consensus nodes (:mod:`repro.node.node`, :mod:`repro.consensus.powfamily`)
and the chain-sync protocol (:mod:`repro.node.sync`) never talk to a socket
or a simulator directly — they program against :class:`Transport`, the
structural interface this module defines.  Two backends implement it:

* :class:`~repro.net.network.SimulatedNetwork` — the deterministic
  discrete-event gossip overlay the evaluation runs on (§VII-A);
* :class:`~repro.live.transport.TcpGossipTransport` — the asyncio TCP
  backend that runs Themis nodes as real processes over real sockets
  (``python -m repro localnet``).

Both relay gossip by one rule, :func:`relay_targets`.  A ``tx`` copy that
came straight from its origin is not forwarded to the origin's other
neighbours, which got the origin's own copy; in a complete overlay a
transaction costs n − 1 transfers, not (n − 1)².  Every other copy floods —
blocks always, so that every honest member relays every block it receives
and block receipt times among honest members stay within δ even when a
producer withholds its block from some members (Prop. 1, GEOST's reception
tie-break).  The price: a transaction the origin fails to deliver to a
neighbour is not covered by the others; that member learns it from the
block that carries it.

The chaos-injection hooks (drop filters, partitions, link disturbances) are
not part of the protocol: the simulated backend implements all of them, the
live backend only the process-local ones, so the chaos layer types against
:class:`~repro.net.network.SimulatedNetwork` (see ``docs/transport.md`` for
the backend matrix).

:class:`NetworkStats` is the accounting surface both backends share: every
transfer a backend swallows instead of delivering must be counted, broken
down by cause — silently disappearing messages are not allowed.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.errors import NetworkError
from repro.net.message import KIND_TX, Message
from repro.serde import to_json

#: Delivery callback: (message, from_peer) -> None.
Handler = Callable[[Message, int], None]
#: Outbound filter: return True to silently drop the message.
DropFilter = Callable[[Message], bool]


def relay_targets(
    adjacency: Mapping[int, Sequence[int]],
    node_id: int,
    message: Message,
    from_peer: int | None,
) -> list[int]:
    """The peers ``node_id`` sends a gossip copy to that is new to it.

    ``from_peer`` is ``None`` at the origin: every neighbour.  A ``tx`` that
    came straight from its origin skips the origin's neighbours too, since
    each got the origin's own copy.  Every other copy floods to
    ``neighbors − {from_peer}``.
    """
    peers = adjacency.get(node_id, ())
    if message.kind == KIND_TX and from_peer == message.origin:
        covered = adjacency.get(from_peer, ())
        return [peer for peer in peers if peer != from_peer and peer not in covered]
    return [peer for peer in peers if peer != from_peer]


def _int_counter() -> dict[str, int]:
    return defaultdict(int)


@dataclass(eq=False)
class NetworkStats:
    """Aggregate traffic counters for overhead accounting (§VI-C).

    ``messages_dropped`` counts every transfer the transport swallowed
    instead of delivering — sends to/from offline nodes, cross-partition
    traffic, armed drop filters, and lossy links — broken down by cause in
    ``drops_by_reason``.  Chaos experiments read these to verify a fault
    actually bit.

    The per-kind counters are ``defaultdict`` internally (so accounting
    code can increment without membership checks), which means merely
    *reading* an absent key materializes a zero entry.  :mod:`repro.serde`
    therefore writes a counter as a plain sorted dict with zero entries
    dropped and reads it back into a ``defaultdict``, and equality compares
    the written forms — a JSON round-trip is exact even after such spurious
    reads.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    bytes_by_kind: dict[str, int] = field(default_factory=_int_counter)
    messages_by_kind: dict[str, int] = field(default_factory=_int_counter)
    drops_by_reason: dict[str, int] = field(default_factory=_int_counter)

    def record_drop(self, reason: str) -> None:
        """Count one dropped transfer under ``reason``."""
        self.messages_dropped += 1
        self.drops_by_reason[reason] += 1

    def record_send(self, kind: str, size: int, count: int = 1) -> None:
        """Count ``count`` transfers of ``size`` bytes leaving a node's uplink."""
        self.messages_sent += count
        self.bytes_sent += count * size
        self.bytes_by_kind[kind] += count * size
        self.messages_by_kind[kind] += count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkStats):
            return NotImplemented
        return to_json(self) == to_json(other)


@dataclass(frozen=True)
class LinkDisturbance:
    """A degraded-link regime applied to a subset of the overlay.

    Models the transient WAN pathologies consensus must survive (lossy,
    duplicating, reordering and throttled links).  On the simulated
    backend all randomness is drawn from the simulator's seeded generator,
    so disturbed runs stay deterministic and replayable.

    Attributes:
        loss: probability a transfer is dropped outright.
        duplicate: probability a delivered transfer arrives twice.
        reorder_jitter: half-width of extra uniform delivery delay in
            seconds; enough jitter breaks FIFO ordering between messages on
            the same link.
        bandwidth_factor: multiplier on serialization time (2.0 halves the
            effective uplink rate).
    """

    loss: float = 0.0
    duplicate: float = 0.0
    reorder_jitter: float = 0.0
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise NetworkError(f"loss must be in [0, 1], got {self.loss}")
        if not 0.0 <= self.duplicate <= 1.0:
            raise NetworkError(f"duplicate must be in [0, 1], got {self.duplicate}")
        if self.reorder_jitter < 0:
            raise NetworkError("reorder_jitter must be non-negative")
        if self.bandwidth_factor < 1.0:
            raise NetworkError("bandwidth_factor must be >= 1")


@runtime_checkable
class Transport(Protocol):
    """What a consensus node needs from the network, and nothing more.

    The contract (see ``docs/transport.md`` for the full statement):

    * ``attach`` registers a node's delivery handler; a transport delivers
      each arriving message exactly once to the handler of its destination.
    * ``unicast`` is point-to-point with no forwarding (the sync protocol).
    * ``gossip`` sends from the origin over the overlay;
      ``gossip_deliver`` is the reception hook a handler calls to dedup and
      relay, returning ``True`` iff the message is new.  Both send to
      :func:`relay_targets`, on either backend.
    * **Handler contract:** a handler passes every message that is not
      point-to-point (``sync/*``) to ``gossip_deliver`` before acting on it,
      and does nothing when that returns ``False``.  Every arriving copy is
      counted in ``stats``; a copy the transport can prove would be turned
      away is counted without invoking the handler (on the live backend,
      without parsing its payload).
    * ``neighbors`` exposes the overlay adjacency (peer rotation in sync).
    * ``set_offline`` detaches a node from the world in both directions —
      the crash/recovery path.
    * every undelivered transfer is counted in ``stats`` with a reason.

    Delivery timing is backend-defined (simulated link model vs. real
    sockets); ordering guarantees are *per-link FIFO at best* and nodes
    must not assume more.
    """

    @property
    def stats(self) -> NetworkStats:
        """The traffic counters, current as of this read."""
        ...

    def attach(self, node_id: int, handler: Handler) -> None:
        """Register a node's delivery handler."""
        ...

    def neighbors(self, node_id: int) -> list[int]:
        """The node's overlay neighbors, sorted."""
        ...

    def unicast(self, src: int, dst: int, message: Message) -> None:
        """Send a message point-to-point (no gossip forwarding)."""
        ...

    def gossip(self, origin: int, message: Message) -> None:
        """Send a new message to the origin's :func:`relay_targets`."""
        ...

    def gossip_deliver(self, dst: int, from_peer: int, message: Message) -> bool:
        """Dedup + relay hook; True iff the message is new at ``dst``."""
        ...

    def set_offline(self, node_id: int, offline: bool) -> None:
        """Fully detach a node (no sends, no deliveries)."""
        ...


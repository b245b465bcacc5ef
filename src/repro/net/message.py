"""Network message envelopes and the chain-sync payloads they carry.

Messages carry Python objects between simulated nodes; the network charges
bandwidth for :attr:`Message.size` bytes.  For chain objects (blocks,
transactions) the size is the real serialized size; protocol messages (PBFT
votes, sync requests, etc.) declare their wire size explicitly, which is how
the PBFT baseline's O(n²) traffic becomes a bandwidth cost.

Each chain-sync payload is a frozen dataclass that declares its own
``kind``; :mod:`repro.net.wire` derives the payload's codec from its field
types, so the declaration here is the only description of its bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.chain.block import Block

_msg_counter = itertools.count()

#: Fixed framing overhead charged per message (headers, kind tag, msg id).
MESSAGE_OVERHEAD_BYTES = 64

# -- message kinds ---------------------------------------------------------------
#
# Gossip kinds ("block", "tx", "pbft/*") flood the overlay with per-node
# dedup.  Sync kinds are point-to-point request/response pairs used by the
# chain-sync protocol (:mod:`repro.node.sync`): a recovering node first pulls
# main-chain *header ids* above its best common ancestor, then fetches the
# block bodies it is missing.  Their payloads are the dataclasses below.

KIND_BLOCK = "block"
KIND_TX = "tx"

def is_sync_kind(kind: str) -> bool:
    """True for point-to-point chain-sync messages, ``sync/*`` (never gossiped)."""
    return kind.startswith("sync/")


@dataclass(frozen=True, slots=True)
class Message:
    """An application message in flight.

    One envelope per logical message: gossip forwards the *same* frozen
    instance across every hop (slot-backed, so the per-hop field reads on
    the transmit path stay cheap) rather than re-wrapping per edge.

    Attributes:
        kind: message type tag, e.g. ``"block"``, ``"tx"``, ``"pbft/prepare"``.
        payload: the carried object (a :class:`~repro.chain.block.Block`,
            transaction, PBFT vote, ...).
        body_size: serialized payload size in bytes.
        origin: node id that created the message.
        msg_id: unique id used for gossip deduplication.
    """

    kind: str
    payload: Any
    body_size: int
    origin: int
    msg_id: int = field(default_factory=lambda: next(_msg_counter))

    @property
    def size(self) -> int:
        """Total bytes charged to the link: body plus framing."""
        return self.body_size + MESSAGE_OVERHEAD_BYTES


# -- chain-sync payloads ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HeadersRequest:
    """Ask for main-chain ids above the newest shared block ``locator`` names."""

    kind: ClassVar[str] = "sync/headers_req"
    request_id: str
    locator: tuple[bytes, ...]


@dataclass(frozen=True, slots=True)
class HeadersResponse:
    """One page of main-chain ids; ``full`` means more may follow."""

    kind: ClassVar[str] = "sync/headers_resp"
    request_id: str
    ids: tuple[bytes, ...]
    full: bool


@dataclass(frozen=True, slots=True)
class BlocksRequest:
    """Ask for the bodies of the block ``ids`` the requester lacks."""

    kind: ClassVar[str] = "sync/blocks_req"
    request_id: str
    ids: tuple[bytes, ...]


@dataclass(frozen=True, slots=True)
class BlocksResponse:
    """The requested bodies the peer holds."""

    kind: ClassVar[str] = "sync/blocks_resp"
    request_id: str
    blocks: tuple[Block, ...]

"""Block synchronization for recovering and late-joining nodes.

A node that crashed, slept through a partition, or joined via the §IV-C
governance flow holds a stale prefix of the main chain and must catch up
before it can mine at the correct self-adaptive difficulty.  The
:class:`SyncManager` runs a two-phase pull protocol over point-to-point
messages (payload types declared in :mod:`repro.net.message`):

1. **headers** — send a bitcoin-style block locator; the peer answers with
   the main-chain block *ids* above the highest common ancestor (one page of
   :attr:`SyncConfig.batch` ids, 32 bytes each on the wire);
2. **blocks** — request the bodies of the ids the requester lacks; received
   blocks flow through the same §III validation as gossiped ones.

Two phases, not one "locator → bodies" round: a live restart held all 6
ids of its page when it came back (gossip filled the gap in the round
trip), and one round re-sends those as full blocks (docs/transport.md).

Pages repeat until a non-full headers page shows the requester is at the
peer's tip; a full page the requester already holds (on a branch it may not
follow) makes the next locator start at that page's last id.  Every
outstanding request is guarded by a timeout with exponential backoff and
bounded retries; each retry rotates to the next neighbor, so one dead or
partitioned peer cannot wedge recovery.  All sync traffic is unicast (never
gossiped) and stale responses — answers to a request that already timed
out, or from a peer that was never asked — are matched by request id and
sender and dropped.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.net.clock import TimerHandle
from repro.net.message import (
    BlocksRequest,
    BlocksResponse,
    HeadersRequest,
    HeadersResponse,
    Message,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.consensus.powfamily import MiningNode

#: Wire bytes per block id in headers/blocks requests and responses.
BLOCK_ID_WIRE_BYTES = 32

#: Fixed request/response envelope bytes beyond the id/body lists.
SYNC_ENVELOPE_BYTES = 16


@dataclass(frozen=True)
class SyncConfig:
    """Tuning knobs for the sync protocol.

    Attributes:
        batch: main-chain ids served per headers page (and the cap on
            bodies served per blocks request).
        timeout: seconds before an unanswered request is retried.
        backoff: timeout multiplier per retry (exponential backoff).
        max_retries: retries per phase before the sync attempt is abandoned;
            each retry rotates to the next neighbor.  Must be >= 1: a
            zero-retry sync would abandon on the first timeout and leave a
            restarting node mining on a stale head whenever its first pick
            of peer happened to be dead.
    """

    batch: int = 64
    timeout: float = 10.0
    backoff: float = 2.0
    max_retries: int = 4

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise SimulationError("sync batch must be >= 1")
        if self.timeout <= 0:
            raise SimulationError("sync timeout must be positive")
        if self.backoff < 1.0:
            raise SimulationError("sync backoff must be >= 1")
        if self.max_retries < 1:
            raise SimulationError("sync max_retries must be >= 1")

    def retry_delay(self, attempt: int) -> float:
        """Timeout for the ``attempt``-th send (0 = first try)."""
        return self.timeout * self.backoff**attempt


@dataclass
class SyncStats:
    """Counters for one node's sync activity."""

    syncs_started: int = 0
    syncs_completed: int = 0
    syncs_failed: int = 0
    requests_sent: int = 0
    responses_received: int = 0
    stale_responses: int = 0
    timeouts: int = 0
    retries: int = 0
    headers_received: int = 0
    blocks_received: int = 0


class SyncManager:
    """Drives (and serves) the chain-sync protocol for one node."""

    def __init__(self, node: "MiningNode", config: SyncConfig | None = None) -> None:
        # Weak: the node owns its manager, and a back-reference would put
        # every node on a reference cycle.  Gossiped blocks never come
        # through here, only sync traffic and its timeouts.
        self.node: MiningNode = weakref.proxy(node)
        self.config = config or SyncConfig()
        self.stats = SyncStats()
        self.active = False
        self._phase: str | None = None  # "headers" | "blocks"
        self._attempt = 0
        self._peer: int | None = None
        self._peer_offset = 0
        self._request_id: str | None = None
        self._request_counter = itertools.count()
        self._timeout_handle: TimerHandle | None = None
        self._pending_ids: list[bytes] = []
        self._page_full = False
        self._resume_after: bytes | None = None

    # -- client side -------------------------------------------------------------

    def start_sync(self, peer: int | None = None) -> None:
        """Begin syncing from ``peer`` (or rotate through neighbors).

        A no-op while a sync is already in flight — concurrent triggers
        (orphan buffering plus an explicit restart) collapse into one run.
        """
        if self.active:
            return
        peers = self._peers()
        if not peers:
            self.node._on_sync_complete(success=False)
            return
        if peer is not None and peer in peers:
            self._peer_offset = peers.index(peer)
        self.active = True
        self.stats.syncs_started += 1
        self._attempt = 0
        self._resume_after = None
        self._phase = "headers"
        self._peer = peers[self._peer_offset % len(peers)]
        self._send_current_request()

    def abort(self) -> None:
        """Drop any in-flight sync (crash path); no completion callback."""
        self.active = False
        self._phase = None
        self._request_id = None
        self._pending_ids = []
        self._cancel_timeout()

    def _peers(self) -> list[int]:
        return sorted(self.node.ctx.network.neighbors(self.node.node_id))

    def _next_request_id(self) -> str:
        return f"{self.node.node_id}:{next(self._request_counter)}"

    def _cancel_timeout(self) -> None:
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None

    def _send_current_request(self) -> None:
        """(Re-)send the request for the current phase and arm its timeout."""
        request_id = self._request_id = self._next_request_id()
        if self._phase == "headers":
            locator = self._locator()
            message = Message(
                kind=HeadersRequest.kind,
                payload=HeadersRequest(request_id, locator),
                body_size=SYNC_ENVELOPE_BYTES + BLOCK_ID_WIRE_BYTES * len(locator),
                origin=self.node.node_id,
            )
        else:
            # Re-filter against the tree: gossip may have filled gaps while
            # we waited, and a retry must not re-request what we now hold.
            self._pending_ids = [
                block_id
                for block_id in self._pending_ids
                if block_id not in self.node.state.tree
            ]
            if not self._pending_ids:
                self._advance_after_blocks()
                return
            message = Message(
                kind=BlocksRequest.kind,
                payload=BlocksRequest(request_id, tuple(self._pending_ids)),
                body_size=SYNC_ENVELOPE_BYTES
                + BLOCK_ID_WIRE_BYTES * len(self._pending_ids),
                origin=self.node.node_id,
            )
        self.stats.requests_sent += 1
        self.node.ctx.network.unicast(self.node.node_id, self._peer, message)
        self._cancel_timeout()
        delay = self.config.retry_delay(self._attempt)
        self._timeout_handle = self.node.ctx.sim.schedule(delay, self._on_timeout)

    def _on_timeout(self) -> None:
        if not self.active:
            return
        self._timeout_handle = None
        self.stats.timeouts += 1
        if self._attempt >= self.config.max_retries:
            self._finish(success=False)
            return
        self._attempt += 1
        self.stats.retries += 1
        # Rotate to the next neighbor — the current peer may be down or on
        # the wrong side of a partition.
        peers = self._peers()
        self._peer_offset = (self._peer_offset + 1) % len(peers)
        self._peer = peers[self._peer_offset]
        self._send_current_request()

    def _locator(self) -> tuple[bytes, ...]:
        """Bitcoin-style block locator: main-chain ids at the tip, then at
        exponentially growing gaps back to genesis.

        Lets a peer with a *diverged* history (offline node, healed
        partition) find the highest common ancestor instead of assuming the
        requester's chain is a prefix of the responder's.
        """
        chain = self.node.state.main_chain()
        ids: list[bytes] = []
        height = len(chain) - 1
        step = 1
        while height > 0:
            ids.append(chain[height].block_id)
            if len(ids) >= 8:
                step *= 2
            height -= step
        ids.append(chain[0].block_id)  # genesis always matches
        if self._resume_after is not None:
            ids.insert(0, self._resume_after)
        return tuple(ids)

    # -- message dispatch -----------------------------------------------------------

    def on_message(self, message: Message, from_peer: int) -> None:
        """Handle any ``sync/*`` message (both protocol directions)."""
        payload = message.payload
        if isinstance(payload, HeadersRequest):
            self._serve_headers(payload, from_peer)
        elif isinstance(payload, BlocksRequest):
            self._serve_blocks(payload, from_peer)
        elif isinstance(payload, HeadersResponse):
            self._on_headers_response(payload, from_peer)
        elif isinstance(payload, BlocksResponse):
            self._on_blocks_response(payload, from_peer)

    # -- server side ---------------------------------------------------------------

    def _serve_headers(self, request: HeadersRequest, from_peer: int) -> None:
        chain = self.node.state.main_chain()
        positions = {block.block_id: i for i, block in enumerate(chain)}
        from_height = 1  # worst case: only genesis is shared
        for block_id in request.locator:
            index = positions.get(block_id)
            if index is not None:
                from_height = index + 1
                break
        ids = tuple(b.block_id for b in chain[from_height : from_height + self.config.batch])
        response = Message(
            kind=HeadersResponse.kind,
            payload=HeadersResponse(request.request_id, ids, len(ids) == self.config.batch),
            body_size=SYNC_ENVELOPE_BYTES + BLOCK_ID_WIRE_BYTES * len(ids),
            origin=self.node.node_id,
        )
        self.node.ctx.network.unicast(self.node.node_id, from_peer, response)

    def _serve_blocks(self, request: BlocksRequest, from_peer: int) -> None:
        tree = self.node.state.tree
        ids = request.ids[: self.config.batch]
        blocks = tuple(tree.get(block_id) for block_id in ids if tree.has_block(block_id))
        body = sum(self.node.block_wire_bytes(block) for block in blocks)
        response = Message(
            kind=BlocksResponse.kind,
            payload=BlocksResponse(request.request_id, blocks),
            body_size=SYNC_ENVELOPE_BYTES + body,
            origin=self.node.node_id,
        )
        self.node.ctx.network.unicast(self.node.node_id, from_peer, response)

    # -- client responses ------------------------------------------------------------

    def _matches(self, response: HeadersResponse | BlocksResponse, from_peer: int) -> bool:
        """True for the answer to the request in flight, from the peer it
        went to; anything else is counted stale."""
        if not self.active or (response.request_id, from_peer) != (self._request_id, self._peer):
            self.stats.stale_responses += 1
            return False
        return True

    def _on_headers_response(self, response: HeadersResponse, from_peer: int) -> None:
        if not self._matches(response, from_peer) or self._phase != "headers":
            return
        self._cancel_timeout()
        self.stats.responses_received += 1
        ids = response.ids
        self.stats.headers_received += len(ids)
        self._page_full = response.full
        missing = [
            block_id for block_id in ids if block_id not in self.node.state.tree
        ]
        if missing:
            self._phase = "blocks"
            self._attempt = 0
            self._pending_ids = missing
            self._send_current_request()
        elif self._page_full:
            # Everything on this page arrived via gossip already: the next
            # page starts after its last id, wherever that branch is.
            self._resume_after = ids[-1]
            self._phase = "headers"
            self._attempt = 0
            self._send_current_request()
        else:
            self._finish(success=True)

    def _on_blocks_response(self, response: BlocksResponse, from_peer: int) -> None:
        if not self._matches(response, from_peer) or self._phase != "blocks":
            return
        self._cancel_timeout()
        self.stats.responses_received += 1
        for block in response.blocks:
            if block.block_id in self.node.state.tree:
                continue
            self.stats.blocks_received += 1
            self.node._handle_block(block)
        self._advance_after_blocks()

    def _advance_after_blocks(self) -> None:
        if self._page_full:
            self._phase = "headers"
            self._attempt = 0
            self._send_current_request()
        else:
            self._finish(success=True)

    def _finish(self, success: bool) -> None:
        self._cancel_timeout()
        self.active = False
        self._phase = None
        self._request_id = None
        self._pending_ids = []
        if success:
            self.stats.syncs_completed += 1
        else:
            self.stats.syncs_failed += 1
        self.node._on_sync_complete(success=success)

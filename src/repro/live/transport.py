"""The asyncio TCP gossip backend of the :class:`~repro.net.transport.Transport` API.

One transport instance serves one node *process*.  It listens on the
process's manifest endpoint, keeps one outbound connection per peer it ever
sends to (lazily dialed, reconnected with exponential backoff), and speaks
the length-prefixed frame format of :mod:`repro.net.wire`.

Design points:

* **Send paths are synchronous and write straight to the socket.**
  Consensus and sync code call ``unicast``/``gossip`` from timer callbacks;
  a message is encoded and framed once, inline, and each copy is one
  ``write`` on the destination's socket (or joins the peer's pre-connect
  list while it is being dialed).  A peer whose unsent bytes have reached
  :data:`SEND_BUFFER_LIMIT` gets nothing more (counted under ``backlog``)
  — a wedged peer must neither freeze the caller nor pin unbounded memory.
* **Receive paths are protocol callbacks.**  Every connection is an
  :class:`asyncio.Protocol`; an accepted one splits what ``data_received``
  hands it into frames and passes each to one method, ``_receive``.  No
  reader or writer task sits between a frame and the socket.
* **Handshake.**  The dialing side's first frame is a ``live/hello``
  announcing its node id; the accepting side uses it to attribute every
  later frame on that connection (``from_peer`` in the handler).
* **Gossip dedup keys on ``(origin, msg_id)``.**  Message ids are
  process-local counters, so two origins may emit the same id — but one
  origin never reuses one.
* **A transaction is relayed around its origin's neighbours.**  A ``tx``
  copy that came straight from its origin is not forwarded to the origin's
  other neighbours, which got the origin's own copy (:func:`relay_targets`);
  in a complete overlay a transaction costs n − 1 frames, not (n − 1)².
  Every other copy floods — blocks always, so that every honest member
  relays every block it receives and block receipt times among honest
  members stay within δ even when a producer withholds its block from some
  members (Prop. 1, GEOST's reception tie-break).  The price: a transaction
  the origin fails to deliver to a neighbour is not covered by the others;
  that member learns it from the block that carries it.
* **Chaos subset.**  Drop filters and ``set_offline`` work (they are
  process-local); overlay-global faults — partitions, link disturbances —
  have no single-process implementation, so this class has no hooks for
  them (see ``docs/transport.md``).
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import Iterable, Mapping, Sequence

from repro.errors import CodecError, NetworkError
from repro.live.clock import LiveClock
from repro.live.manifest import ConsortiumManifest
from repro.net.message import KIND_TX, Message, is_sync_kind
from repro.net.transport import DropFilter, Handler, NetworkStats
from repro.net.wire import (
    KIND_HELLO,
    FrameDecoder,
    Hello,
    decode_message,
    encode_message,
    frame,
    peek_envelope,
)

#: A send is dropped (counted as ``backlog``) while the peer's unsent bytes —
#: its socket's write buffer, or its pre-connect list — are at or past this.
#: 1 MiB holds ≈ 1,800 framed 512-byte transactions, about 9 s of a 200 tx/s
#: load queued for one unreachable peer; any one frame is taken while the
#: data is under the bound, so a full 64-block sync response still goes out,
#: and a wedged peer pins at most one frame more than this.
SEND_BUFFER_LIMIT = 1 << 20

_NO_INBOUND: tuple[Message | None, bytes] = (None, b"")


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


class _PeerLink:
    """One peer's outbound side: its connection once dialed, the frames sent
    before that, and the dial task that owns the connection."""

    def __init__(self, peer_id: int) -> None:
        self.peer_id = peer_id
        self.conn: asyncio.Transport | None = None
        self.pending: list[bytes] = []
        self.pending_bytes = 0
        self.task: asyncio.Task[None] | None = None

    def write(self, data: bytes) -> bool:
        """Queue one frame for the peer; ``False`` if its unsent data is at
        the bound."""
        conn = self.conn
        if conn is not None and not conn.is_closing():
            if conn.get_write_buffer_size() >= SEND_BUFFER_LIMIT:
                return False
            conn.write(data)
            return True
        if self.pending_bytes >= SEND_BUFFER_LIMIT:
            return False
        self.pending.append(data)
        self.pending_bytes += len(data)
        return True

    def connected(self, conn: asyncio.Transport, hello: bytes) -> None:
        """Start using ``conn``: the hello first, then every pending frame."""
        conn.write(b"".join([hello, *self.pending]))
        self.pending.clear()
        self.pending_bytes = 0
        self.conn = conn


class _Dialed(asyncio.Protocol):
    """A connection this node dialed: it only writes; ``closed`` resolves
    when the connection is gone."""

    def __init__(self) -> None:
        self.closed: asyncio.Future[None] = asyncio.get_running_loop().create_future()

    def connection_lost(self, exc: Exception | None) -> None:
        if not self.closed.done():
            self.closed.set_result(None)


class _Accepted(asyncio.Protocol):
    """A connection a peer dialed: every complete frame goes to ``_receive``."""

    _conn: asyncio.Transport

    def __init__(self, owner: TcpGossipTransport) -> None:
        self._owner = owner
        self._decoder = FrameDecoder()
        self._from_peer: int | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._conn = transport
        if self._owner._running:
            self._owner._accepted.add(transport)
        else:
            transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self._owner._accepted.discard(self._conn)

    def data_received(self, data: bytes) -> None:
        try:
            for body in self._decoder.feed(data):
                self._from_peer = self._owner._receive(body, self._from_peer)
        except CodecError:
            # A misbehaving peer loses this connection; reconnecting is the
            # dialing side's business.
            self._conn.close()


class TcpGossipTransport:
    """TCP/gossip :class:`~repro.net.transport.Transport` for one live node.

    Args:
        manifest: the consortium manifest (endpoints, overlay, parameters).
        node_id: which manifest member this process is.
        clock: the process's :class:`~repro.live.clock.LiveClock`.
        dial_timeout: seconds per connection attempt.
        backoff_base: first reconnect delay in seconds; it doubles per
            consecutive failure.
        backoff_max: reconnect delay ceiling in seconds.
    """

    def __init__(
        self,
        *,
        manifest: ConsortiumManifest,
        node_id: int,
        clock: LiveClock,
        dial_timeout: float = 2.0,
        backoff_base: float = 0.1,
        backoff_max: float = 3.0,
    ) -> None:
        manifest.peer(node_id)  # validates membership
        self.manifest = manifest
        self.node_id = node_id
        self.clock = clock
        self.dial_timeout = dial_timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.stats = NetworkStats()
        #: Outbound connections that failed or dropped (per-peer, cumulative).
        self.reconnects = 0
        self._adjacency = manifest.adjacency()
        self._handlers: dict[int, Handler] = {}
        self._drop_filters: dict[int, DropFilter] = {}
        self._offline: set[int] = set()
        self._seen: set[tuple[int, int]] = set()
        #: The message the handler is running on, and the body it came in.
        self._inbound = _NO_INBOUND
        self._links: dict[int, _PeerLink] = {}
        self._accepted: set[asyncio.Transport] = set()
        self._server: asyncio.Server | None = None
        self._running = False

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and begin accepting peers."""
        if self._running:
            return
        self._running = True
        spec = self.manifest.peer(self.node_id)
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Accepted(self), host=spec.host, port=spec.port
        )

    async def stop(self) -> None:
        """Close the server and every connection, then end the dial tasks.

        A send racing the teardown is dropped (``stopped``) instead of
        starting a dial task, and a connection accepted meanwhile closes
        itself, so one pass leaves nothing behind.
        """
        self._running = False
        server, self._server = self._server, None
        if server is not None:
            server.close()
        links = list(self._links.values())
        self._links.clear()
        for conn in [*self._accepted, *(link.conn for link in links if link.conn)]:
            conn.close()
        tasks = [link.task for link in links if link.task is not None]
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        if server is not None:
            await server.wait_closed()

    async def wait_connected(self, min_peers: int, timeout: float) -> bool:
        """Wait until outbound links to ``min_peers`` neighbors are up.

        Dials every overlay neighbor (idempotent) and returns ``True`` once
        enough are connected, ``False`` on timeout — callers decide whether
        a partially connected start is acceptable.
        """
        for peer in self.neighbors(self.node_id):
            self._link_for(peer)
        deadline = self.clock.now + timeout
        while self.clock.now < deadline:
            up = sum(1 for link in self._links.values() if link.conn is not None)
            if up >= min_peers:
                return True
            await asyncio.sleep(0.05)
        return False

    # -- membership -------------------------------------------------------------------

    def attach(self, node_id: int, handler: Handler) -> None:
        """Register the local node's delivery handler.

        Only this process's own node can attach — remote members are
        reached over sockets, not handler tables.
        """
        if node_id != self.node_id:
            raise NetworkError(
                f"transport for node {self.node_id} cannot attach node {node_id}"
            )
        self._handlers[node_id] = handler

    def detach(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)

    @property
    def node_ids(self) -> list[int]:
        """Every consortium member (the manifest is the membership)."""
        return [peer.node_id for peer in self.manifest.peers]

    def neighbors(self, node_id: int) -> list[int]:
        """Overlay neighbors from the manifest-derived adjacency."""
        return list(self._adjacency.get(node_id, []))

    # -- chaos subset -------------------------------------------------------------------

    def set_drop_filter(self, node_id: int, drop: DropFilter | None) -> None:
        """Install (or clear) an outbound drop filter (process-local)."""
        if drop is None:
            self._drop_filters.pop(node_id, None)
        else:
            self._drop_filters[node_id] = drop

    def set_offline(self, node_id: int, offline: bool) -> None:
        """Silence the local node in both directions (process-local)."""
        if offline:
            self._offline.add(node_id)
        else:
            self._offline.discard(node_id)

    def is_offline(self, node_id: int) -> bool:
        return node_id in self._offline

    # -- send paths ------------------------------------------------------------------

    def _send(self, src: int, dsts: Iterable[int], message: Message) -> None:
        """Write one framed copy per destination, encoded at most once: a
        message being forwarded goes out in the body it came in (the codec is
        canonical, so re-encoding the decoded message gives the same bytes)."""
        data: bytes | None = None
        drop = self._drop_filters.get(src)
        for dst in dsts:
            if not self._running:
                # A send racing stop() must not start a dial task that the
                # teardown would then have to chase.
                self.stats.record_drop("stopped")
                continue
            if src in self._offline or dst in self._offline:
                self.stats.record_drop("offline")
                continue
            if drop is not None and drop(message):
                self.stats.record_drop("filtered")
                continue
            if data is None:
                data = self._frame(message)
            if not self._link_for(dst).write(data):
                self.stats.record_drop("backlog")
                continue
            self.stats.record_send(message.kind, len(data))

    def _frame(self, message: Message) -> bytes:
        inbound, body = self._inbound
        if inbound is message:
            return frame(body)
        try:
            return frame(encode_message(message))
        except CodecError:
            self.stats.record_drop("unencodable")
            raise

    def unicast(self, src: int, dst: int, message: Message) -> None:
        """Send a message point-to-point (no gossip forwarding)."""
        if src != self.node_id:
            raise NetworkError(f"node {src} does not send through this transport")
        if dst == self.node_id:
            raise NetworkError("unicast to self")
        self.manifest.peer(dst)  # validates the destination exists
        self._send(src, (dst,), message)

    def gossip(self, origin: int, message: Message) -> None:
        """Originate a gossip message from the local node to every neighbor."""
        if origin != self.node_id:
            raise NetworkError(f"node {origin} does not send through this transport")
        self._seen.add((message.origin, message.msg_id))
        self._send(origin, relay_targets(self._adjacency, origin, message, None), message)

    def gossip_deliver(self, dst: int, from_peer: int, message: Message) -> bool:
        """Dedup a received gossip message; relay it onward if new."""
        key = (message.origin, message.msg_id)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._send(dst, relay_targets(self._adjacency, dst, message, from_peer), message)
        return True

    # -- outbound connections -------------------------------------------------------

    def _link_for(self, peer_id: int) -> _PeerLink:
        link = self._links.get(peer_id)
        if link is None:
            link = _PeerLink(peer_id)
            self._links[peer_id] = link
            link.task = asyncio.get_running_loop().create_task(
                self._run_link(link), name=f"link-{self.node_id}->{peer_id}"
            )
        return link

    async def _run_link(self, link: _PeerLink) -> None:
        """Dial the peer, keep its connection until it drops, redial."""
        spec = self.manifest.peer(link.peer_id)
        loop = asyncio.get_running_loop()
        failures = 0
        while self._running:
            try:
                conn, dialed = await asyncio.wait_for(
                    loop.create_connection(_Dialed, spec.host, spec.port),
                    timeout=self.dial_timeout,
                )
            except (OSError, asyncio.TimeoutError):
                pass
            else:
                hello = Message(
                    kind=KIND_HELLO, payload=Hello(self.node_id), body_size=8, origin=self.node_id
                )
                failures = 0
                try:
                    link.connected(conn, frame(encode_message(hello)))
                    await dialed.closed
                finally:
                    link.conn = None
                    conn.close()
            if not self._running:
                break
            failures += 1
            self.reconnects += 1
            await asyncio.sleep(
                min(self.backoff_base * 2.0 ** (failures - 1), self.backoff_max)
            )

    # -- inbound connections ---------------------------------------------------------

    def _receive(self, body: bytes, from_peer: int | None) -> int:
        """Take one frame off a connection; return the peer it is from.

        The first frame must be the hello that names the peer, and it is the
        only hello: a second one closes the connection instead of reaching
        the node, which would flood it as gossip.  After the hello, a gossip
        copy (not ``sync/*``) whose ``(origin, msg_id)`` is already seen is
        counted like any arrival and its payload is never parsed —
        ``gossip_deliver`` would turn it away (the handler contract).
        Anything else is decoded in full before the handler sees it.  Raises
        :class:`CodecError` when the connection must close.
        """
        if from_peer is None:
            return self._handshake(decode_message(body))
        kind, origin, msg_id = peek_envelope(body)
        if kind == KIND_HELLO:
            raise CodecError(f"second hello on the connection from node {from_peer}")
        if (origin, msg_id) in self._seen and not is_sync_kind(kind):
            self._arrival()
            return from_peer
        message = decode_message(body)
        handler = self._arrival()
        if handler is not None:
            self._inbound = (message, body)
            try:
                handler(message, from_peer)
            finally:
                self._inbound = _NO_INBOUND
        return from_peer

    def _handshake(self, hello: Message) -> int:
        """The peer a connection's first frame announces, if it may be one."""
        if hello.kind != KIND_HELLO:
            raise CodecError("first frame on a connection must be hello")
        peer = hello.payload.node_id
        if not 0 <= peer < self.manifest.n or peer == self.node_id:
            raise CodecError(f"hello from node {peer}, which is not a peer")
        return peer

    def _arrival(self) -> Handler | None:
        """Count one arriving copy; the handler it goes to unless dropped."""
        if self.node_id in self._offline:
            self.stats.record_drop("offline")
            return None
        handler = self._handlers.get(self.node_id)
        if handler is None:
            self.stats.record_drop("detached")
            return None
        self.stats.messages_delivered += 1
        return handler

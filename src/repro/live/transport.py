"""The asyncio TCP gossip backend of the :class:`~repro.net.transport.Transport` API.

One transport instance serves one node *process*.  It listens on the
process's manifest endpoint, keeps one outbound connection per peer it ever
sends to (lazily dialed, reconnected with exponential backoff), and speaks
the length-prefixed frame format of :mod:`repro.net.wire`.

Design points:

* **Send paths are synchronous.**  Consensus and sync code call
  ``unicast``/``gossip`` from timer callbacks; frames are encoded inline
  and enqueued on the destination peer's bounded outbox, which a per-peer
  writer task drains.  A full outbox drops the frame (counted under
  ``backlog``) — a wedged peer must not freeze the caller.
* **Handshake.**  The dialing side's first frame is a ``live/hello``
  announcing its node id; the accepting side uses it to attribute every
  later frame on that connection (``from_peer`` in the handler).
* **Gossip dedup keys on ``(origin, msg_id)``.**  Message ids are
  process-local counters, so two origins may emit the same id — but one
  origin never reuses one.
* **Chaos subset.**  Drop filters and ``set_offline`` work (they are
  process-local); overlay-global faults — partitions, link disturbances —
  have no single-process implementation, so this class has no hooks for
  them (see ``docs/transport.md``).
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import Iterable

from repro.errors import CodecError, NetworkError
from repro.live.clock import LiveClock
from repro.live.manifest import ConsortiumManifest
from repro.net.message import Message, is_sync_kind
from repro.net.transport import DropFilter, Handler, NetworkStats
from repro.net.wire import (
    KIND_HELLO,
    FrameDecoder,
    decode_message,
    encode_message,
    frame,
    peek_envelope,
)

#: Frames a peer outbox buffers before new sends are dropped (counted).
OUTBOX_CAPACITY = 1024


class _PeerLink:
    """One peer's outbound state: bounded outbox plus its writer task."""

    def __init__(self, peer_id: int) -> None:
        self.peer_id = peer_id
        self.outbox: asyncio.Queue[bytes] = asyncio.Queue(maxsize=OUTBOX_CAPACITY)
        self.task: asyncio.Task[None] | None = None
        self.connected = asyncio.Event()


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
        #: Outbound connection attempts that failed (per-peer, cumulative).
        self.reconnects = 0
        self._adjacency = manifest.adjacency()
        self._handlers: dict[int, Handler] = {}
        self._drop_filters: dict[int, DropFilter] = {}
        self._offline: set[int] = set()
        self._seen: set[tuple[int, int]] = set()
        #: The message last handed to the handler, and the body it came in.
        self._inbound: tuple[Message | None, bytes] = (None, b"")
        self._links: dict[int, _PeerLink] = {}
        self._server: asyncio.Server | None = None
        self._reader_tasks: set[asyncio.Task[None]] = set()
        self._running = False

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and begin accepting peers."""
        if self._running:
            return
        self._running = True
        spec = self.manifest.peer(self.node_id)
        self._server = await asyncio.start_server(
            self._accept, host=spec.host, port=spec.port
        )

    async def stop(self) -> None:
        """Close the server, writer tasks and all connections.

        Safe against concurrent activity: ``_send`` stops creating
        links once ``_running`` drops, and the cancellation loop below
        repeats until a pass finds no tasks — reader tasks the server
        accepted while we were awaiting earlier cancellations included.
        """
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while True:
            tasks = [
                link.task for link in self._links.values() if link.task is not None
            ]
            tasks.extend(self._reader_tasks)
            self._links.clear()
            self._reader_tasks.clear()
            if not tasks:
                break
            for task in tasks:
                task.cancel()
            for task in tasks:
                with contextlib.suppress(asyncio.CancelledError):
                    await task

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
            up = sum(1 for link in self._links.values() if link.connected.is_set())
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
        """Enqueue one framed copy per destination, encoded at most once: a
        message being forwarded goes out in the body it came in (the codec is
        canonical, so re-encoding the decoded message gives the same bytes)."""
        data = frame(self._inbound[1]) if self._inbound[0] is message else None
        drop = self._drop_filters.get(src)
        for dst in dsts:
            if not self._running:
                # A send racing stop() must not resurrect a writer task that
                # the teardown loop would then have to chase.
                self.stats.record_drop("stopped")
                continue
            if src in self._offline or dst in self._offline:
                self.stats.record_drop("offline")
                continue
            if drop is not None and drop(message):
                self.stats.record_drop("filtered")
                continue
            if data is None:
                try:
                    data = frame(encode_message(message))
                except CodecError:
                    self.stats.record_drop("unencodable")
                    raise
            try:
                self._link_for(dst).outbox.put_nowait(data)
            except asyncio.QueueFull:
                self.stats.record_drop("backlog")
                continue
            self.stats.record_send(message.kind, len(data))

    def unicast(self, src: int, dst: int, message: Message) -> None:
        """Send a message point-to-point (no gossip forwarding)."""
        if src != self.node_id:
            raise NetworkError(f"node {src} does not send through this transport")
        if dst == self.node_id:
            raise NetworkError("unicast to self")
        self.manifest.peer(dst)  # validates the destination exists
        self._send(src, (dst,), message)

    def gossip(self, origin: int, message: Message) -> None:
        """Originate a gossip flood from the local node."""
        if origin != self.node_id:
            raise NetworkError(f"node {origin} does not send through this transport")
        self._seen.add((message.origin, message.msg_id))
        self._forward(origin, message, exclude=None)

    def _forward(self, node_id: int, message: Message, exclude: int | None) -> None:
        peers = [peer for peer in self.neighbors(node_id) if peer != exclude]
        self._send(node_id, peers, message)

    def gossip_deliver(self, dst: int, from_peer: int, message: Message) -> bool:
        """Dedup a received gossip message; forward it onward if new."""
        key = (message.origin, message.msg_id)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._forward(dst, message, exclude=from_peer)
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
        """Per-peer writer: dial, drain the outbox, reconnect on failure."""
        spec = self.manifest.peer(link.peer_id)
        failures = 0
        while self._running:
            writer: asyncio.StreamWriter | None = None
            try:
                _, writer = await asyncio.wait_for(
                    asyncio.open_connection(spec.host, spec.port),
                    timeout=self.dial_timeout,
                )
                hello = Message(
                    kind=KIND_HELLO,
                    payload={"node_id": self.node_id},
                    body_size=8,
                    origin=self.node_id,
                )
                writer.write(frame(encode_message(hello)))
                await writer.drain()
                link.connected.set()
                failures = 0
                while self._running:
                    data = await link.outbox.get()
                    writer.write(data)
                    await writer.drain()
            except asyncio.CancelledError:
                raise
            except (OSError, asyncio.TimeoutError):
                link.connected.clear()
                failures += 1
                self.reconnects += 1
            finally:
                if writer is not None:
                    writer.close()
                    with contextlib.suppress(OSError, asyncio.TimeoutError):
                        await writer.wait_closed()
            if self._running and failures:
                delay = min(
                    self.backoff_base * 2.0 ** (failures - 1),
                    self.backoff_max,
                )
                await asyncio.sleep(delay)
        link.connected.clear()

    # -- inbound connections ---------------------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._reader_tasks.add(task)
        try:
            await self._read_loop(reader)
        except asyncio.CancelledError:
            # Only stop() cancels reader tasks; finishing normally keeps
            # asyncio's stream wrapper from logging the cancellation.
            pass
        except (OSError, asyncio.IncompleteReadError, CodecError):
            # A dead or misbehaving peer closes its own connection; the
            # reconnect logic lives on the dialing side.
            pass
        finally:
            self._reader_tasks.discard(task)
            writer.close()
            with contextlib.suppress(OSError, asyncio.TimeoutError):
                await writer.wait_closed()

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder()
        from_peer: int | None = None
        while self._running:
            data = await reader.read(65536)
            if not data:
                return
            for body in decoder.feed(data):
                if from_peer is None:
                    from_peer = self._handshake(decode_message(body))
                    continue
                kind, origin, msg_id = peek_envelope(body)
                if (
                    (origin, msg_id) in self._seen
                    and kind != KIND_HELLO
                    and not is_sync_kind(kind)
                ):
                    # A gossip copy ``gossip_deliver`` would turn away (the
                    # handler contract): counted, its payload never parsed.
                    self._arrival()
                    continue
                message = decode_message(body)
                handler = self._arrival()
                if handler is not None:
                    self._inbound = (message, body)
                    handler(message, from_peer)

    def _handshake(self, hello: Message) -> int:
        """The peer a connection's first frame announces, if it may be one."""
        if hello.kind != KIND_HELLO:
            raise CodecError("first frame on a connection must be hello")
        peer = int(hello.payload["node_id"])
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

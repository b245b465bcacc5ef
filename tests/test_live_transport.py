"""Tests for the asyncio TCP gossip backend and chain sync over real sockets.

Everything here runs real ``127.0.0.1`` connections inside ``asyncio.run``;
timeouts are kept short but generous enough for a loaded CI worker.  The
*deterministic* behavior of the shared consensus code is pinned separately
by ``tests/test_transport_parity.py`` — these tests assert delivery,
reconnection and sync *semantics*, not timing.
"""

from __future__ import annotations

import asyncio
import random
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.codec import Writer
from repro.chain.genesis import make_genesis
from repro.chain.transaction import make_transaction
from repro.consensus.base import RunContext
from repro.consensus.powfamily import MiningNode, themis_config
from repro.errors import NetworkError, SimulationError
from repro.live.clock import LiveClock
from repro.live.localnet import free_ports
from repro.live.manifest import ConsortiumManifest, localhost_manifest
from repro.live import transport as live_transport
from repro.live.transport import TcpGossipTransport
from repro.mining.oracle import MiningOracle
from repro.net.message import KIND_BLOCK, KIND_TX, HeadersRequest, Message, is_sync_kind
from repro.net.topology import overlay_topology
from repro.net.transport import relay_targets
from repro.net.wire import KIND_HELLO, Hello, encode_message, frame
from repro.node.sync import SyncConfig
from repro.sim.fleet import build_mining_fleet, run_fleet_to_height

from tests.conftest import keypair


def _tx_message(origin: int) -> Message:
    tx = make_transaction(keypair(origin), keypair(9).public.fingerprint(), 1, 0)
    return Message(kind=KIND_TX, payload=tx, body_size=tx.size, origin=origin)


async def _start_transports(
    manifest: ConsortiumManifest, node_ids: list[int]
) -> dict[int, TcpGossipTransport]:
    transports = {}
    for node_id in node_ids:
        transport = TcpGossipTransport(
            manifest=manifest,
            node_id=node_id,
            clock=LiveClock(seed=node_id),
            dial_timeout=0.5,
        )
        await transport.start()
        transports[node_id] = transport
    return transports


async def _stop_all(transports: dict[int, TcpGossipTransport]) -> None:
    for transport in transports.values():
        await transport.stop()


async def _wait_until(predicate, timeout: float, interval: float = 0.02) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


def test_live_clock_refuses_a_negative_seed():
    loop = asyncio.new_event_loop()
    try:
        with pytest.raises(SimulationError, match="non-negative"):
            LiveClock(seed=-1, loop=loop)
    finally:
        loop.close()


class TestDelivery:
    def test_unicast_between_two_transports(self):
        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(2))
            transports = await _start_transports(manifest, [0, 1])
            received: list[tuple[int, Message]] = []
            transports[1].attach(1, lambda msg, peer: received.append((peer, msg)))
            try:
                message = _tx_message(0)
                transports[0].unicast(0, 1, message)
                assert await _wait_until(lambda: received, timeout=5.0)
                from_peer, delivered = received[0]
                assert from_peer == 0
                assert delivered.payload == message.payload
                assert (delivered.origin, delivered.msg_id) == (0, message.msg_id)
                assert transports[0].stats.messages_sent == 1
                assert transports[1].stats.messages_delivered == 1
            finally:
                await _stop_all(transports)

        asyncio.run(run())

    def test_gossip_reaches_every_peer_exactly_once(self):
        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(3))
            transports = await _start_transports(manifest, [0, 1, 2])
            processed: dict[int, list[int]] = {1: [], 2: []}

            def handler_for(node_id: int):
                def handler(message: Message, from_peer: int) -> None:
                    if transports[node_id].gossip_deliver(
                        node_id, from_peer, message
                    ):
                        processed[node_id].append(message.msg_id)

                return handler

            for node_id in (1, 2):
                transports[node_id].attach(node_id, handler_for(node_id))
            try:
                message = _tx_message(0)
                transports[0].gossip(0, message)
                assert await _wait_until(
                    lambda: all(processed.values()), timeout=5.0
                )
                # Let the forwarded duplicates (1→2 and 2→1) arrive too, then
                # check dedup swallowed them.
                await asyncio.sleep(0.3)
                assert processed[1] == [message.msg_id]
                assert processed[2] == [message.msg_id]
            finally:
                await _stop_all(transports)

        asyncio.run(run())

    def test_offline_and_drop_filter_are_counted_drops(self):
        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(2))
            transports = await _start_transports(manifest, [0])
            try:
                transports[0].set_offline(0, True)
                transports[0].unicast(0, 1, _tx_message(0))
                assert transports[0].stats.drops_by_reason["offline"] == 1
                transports[0].set_offline(0, False)

                transports[0].set_drop_filter(0, lambda message: True)
                transports[0].unicast(0, 1, _tx_message(0))
                assert transports[0].stats.drops_by_reason["filtered"] == 1
                assert transports[0].stats.messages_sent == 0
            finally:
                await _stop_all(transports)

        asyncio.run(run())

    def test_overlay_global_faults_are_rejected(self):
        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(2))
            transport = TcpGossipTransport(
                manifest=manifest, node_id=0, clock=LiveClock(seed=0)
            )
            assert not hasattr(transport, "set_partition")
            with pytest.raises(NetworkError, match="attach"):
                transport.attach(1, lambda msg, peer: None)

        asyncio.run(run())


def _contract_handler(transport: TcpGossipTransport, accepted: list[tuple[int, Message]]):
    """What every node handler does: sync kinds directly, the rest through
    ``gossip_deliver`` first and nothing more when it says duplicate."""

    def handler(message: Message, from_peer: int) -> None:
        if is_sync_kind(message.kind) or transport.gossip_deliver(
            transport.node_id, from_peer, message
        ):
            accepted.append((from_peer, message))

    return handler


def _hello(node_id: int) -> bytes:
    return frame(
        encode_message(
            Message(kind=KIND_HELLO, payload=Hello(node_id), body_size=8, origin=node_id)
        )
    )


def _headers_request(origin: int, msg_id: int) -> bytes:
    return frame(
        encode_message(
            Message(
                kind=HeadersRequest.kind,
                payload=HeadersRequest("r", ()),
                body_size=8,
                origin=origin,
                msg_id=msg_id,
            )
        )
    )


def _garbage_tx(origin: int, msg_id: int) -> bytes:
    """A ``tx`` envelope followed by bytes no transaction decodes from."""
    writer = Writer()
    writer.write_str(KIND_TX)
    for field in (origin, msg_id, 512):
        writer.write_varint(field)
    return frame(writer.getvalue() + b"\xff\xfe\xfd")


async def _closed_by_peer(reader: asyncio.StreamReader, timeout: float = 5.0) -> bool:
    """True once the other side has closed the connection (EOF within timeout)."""
    try:
        return await asyncio.wait_for(reader.read(1), timeout) == b""
    except asyncio.TimeoutError:
        return False


class TestHandshake:
    @pytest.mark.parametrize("claimed", [99, 0], ids=["non-member", "the-node-itself"])
    def test_hello_with_a_bad_id_is_refused(self, claimed):
        """The hello names who every later frame is attributed to: a node id
        outside the manifest, or the local node's own, closes the connection
        before any handler runs — and the node keeps serving real peers."""

        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(2))
            transports = await _start_transports(manifest, [0, 1])
            accepted: list[tuple[int, Message]] = []
            transports[0].attach(0, _contract_handler(transports[0], accepted))
            try:
                spec = manifest.peer(0)
                reader, writer = await asyncio.open_connection(spec.host, spec.port)
                writer.write(_hello(claimed) + _headers_request(claimed, 1))
                await writer.drain()
                assert await _closed_by_peer(reader)
                writer.close()
                assert accepted == []
                assert transports[0].stats.messages_delivered == 0

                transports[1].unicast(1, 0, _tx_message(1))
                assert await _wait_until(lambda: accepted, timeout=5.0)
                assert accepted[0][0] == 1
            finally:
                await _stop_all(transports)

        asyncio.run(run())

    def test_first_frame_must_still_be_a_hello(self):
        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(2))
            transports = await _start_transports(manifest, [0])
            accepted: list[tuple[int, Message]] = []
            transports[0].attach(0, _contract_handler(transports[0], accepted))
            try:
                seen = _tx_message(1)
                transports[0].gossip_deliver(0, 1, seen)  # even a seen id does not excuse it
                spec = manifest.peer(0)
                reader, writer = await asyncio.open_connection(spec.host, spec.port)
                writer.write(frame(encode_message(seen)))
                await writer.drain()
                assert await _closed_by_peer(reader)
                writer.close()
                assert accepted == []
                assert transports[0].stats.messages_delivered == 0
            finally:
                await _stop_all(transports)

        asyncio.run(run())


async def _settled_gossip(transports: dict[int, TcpGossipTransport], arrivals: int) -> None:
    """Wait for ``arrivals`` copies in all, then check no more come."""
    delivered = lambda: sum(t.stats.messages_delivered for t in transports.values())
    assert await _wait_until(lambda: delivered() >= arrivals, timeout=10.0)
    await asyncio.sleep(0.1)
    assert delivered() == arrivals


def _genesis_with_multiple(origin: int, multiple: float) -> bytes:
    """The genesis block's frame with its difficulty multiple rewritten: every
    byte well-framed, the header unbuildable below 1.0 (Eq. 6)."""
    block = make_genesis()
    body = encode_message(
        Message(kind=KIND_BLOCK, payload=block, body_size=block.size, origin=origin, msg_id=1)
    )
    one = struct.pack(">d", block.header.difficulty_multiple)
    assert block.header.difficulty_multiple == 1.0 and one in body
    return frame(body.replace(one, struct.pack(">d", multiple), 1))


class TestHostileFrames:
    def test_a_well_framed_unbuildable_payload_closes_only_its_connection(self):
        """A frame that parses but cannot be built into a block is refused
        like garbage: the connection closes, no exception escapes to the
        loop, and the node keeps serving its other peers."""

        async def run() -> None:
            loop = asyncio.get_running_loop()
            escaped: list[dict] = []
            loop.set_exception_handler(lambda _, context: escaped.append(context))
            manifest = localhost_manifest(ports=free_ports(2))
            transports = await _start_transports(manifest, [0, 1])
            accepted: list[tuple[int, Message]] = []
            transports[0].attach(0, _contract_handler(transports[0], accepted))
            try:
                spec = manifest.peer(0)
                reader, writer = await asyncio.open_connection(spec.host, spec.port)
                writer.write(_hello(1) + _genesis_with_multiple(1, 0.5))
                await writer.drain()
                assert await _closed_by_peer(reader)
                writer.close()
                assert accepted == []

                transports[1].unicast(1, 0, _tx_message(1))
                assert await _wait_until(lambda: accepted, timeout=5.0)
                assert accepted[0][0] == 1
                assert escaped == []
            finally:
                await _stop_all(transports)

        asyncio.run(run())

    def test_a_second_hello_closes_its_connection_and_reaches_no_node(self):
        """A hello is not gossip: one after the handshake used to be handed
        to the node, which relayed it to every member, each of which did the
        same.  Now it closes its connection like garbage, and nothing is
        delivered or sent."""

        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(4))  # complete overlay
            transports = await _start_transports(manifest, [0, 1, 2])
            accepted: dict[int, list[tuple[int, Message]]] = {i: [] for i in range(3)}
            for node_id, transport in transports.items():
                transport.attach(node_id, _contract_handler(transport, accepted[node_id]))
            try:
                spec = manifest.peer(0)
                reader, writer = await asyncio.open_connection(spec.host, spec.port)
                again = Message(kind=KIND_HELLO, payload=Hello(3), body_size=8, origin=3, msg_id=77)
                writer.write(_hello(3) + frame(encode_message(again)))
                await writer.drain()
                assert await _closed_by_peer(reader)
                writer.close()
                await asyncio.sleep(0.2)
                assert all(got == [] for got in accepted.values())
                assert sum(t.stats.messages_sent for t in transports.values()) == 0

                transports[1].unicast(1, 0, _tx_message(1))
                assert await _wait_until(lambda: accepted[0], timeout=5.0)
                assert accepted[0][0][0] == 1
            finally:
                await _stop_all(transports)

        asyncio.run(run())


class TestMessageEconomy:
    """A gossip copy is encoded once, and decoded once per node it reaches."""

    @pytest.fixture()
    def codec_calls(self, monkeypatch) -> dict[str, list[str]]:
        """Kinds passed through the transport's ``encode_message`` /
        ``decode_message`` globals (the names the benchmark spine patches)."""
        calls: dict[str, list[str]] = {"encode": [], "decode": []}
        encode, decode = live_transport.encode_message, live_transport.decode_message

        def counted_encode(message: Message) -> bytes:
            calls["encode"].append(message.kind)
            return encode(message)

        def counted_decode(body: bytes) -> Message:
            message = decode(body)
            calls["decode"].append(message.kind)
            return message

        monkeypatch.setattr(live_transport, "encode_message", counted_encode)
        monkeypatch.setattr(live_transport, "decode_message", counted_decode)
        return calls

    def test_one_gossip_is_one_encode_and_one_decode_per_receiver(self, codec_calls):
        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(4))  # complete overlay
            transports = await _start_transports(manifest, [0, 1, 2, 3])
            accepted: dict[int, list[tuple[int, Message]]] = {i: [] for i in range(4)}
            for node_id, transport in transports.items():
                transport.attach(node_id, _contract_handler(transport, accepted[node_id]))
            try:
                message = _tx_message(0)
                transports[0].gossip(0, message)
                # 3 copies from the origin, and no relays: every other member
                # is the origin's neighbour and got the origin's own copy.
                await _settled_gossip(transports, arrivals=3)
                assert sum(t.stats.messages_sent for t in transports.values()) == 3
                assert [len(accepted[i]) for i in range(4)] == [0, 1, 1, 1]
                assert all(
                    got[0][1].payload == message.payload for got in list(accepted.values())[1:]
                )
                assert codec_calls["encode"].count(KIND_TX) == 1
                assert codec_calls["decode"].count(KIND_TX) == 3
            finally:
                await _stop_all(transports)

        asyncio.run(run())

    def test_a_block_still_floods_every_link(self, codec_calls):
        """Every member relays every block it receives, so receipt times stay
        within δ even when a producer withholds its block from someone."""

        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(4))  # complete overlay
            transports = await _start_transports(manifest, [0, 1, 2, 3])
            accepted: dict[int, list[tuple[int, Message]]] = {i: [] for i in range(4)}
            for node_id, transport in transports.items():
                transport.attach(node_id, _contract_handler(transport, accepted[node_id]))
            try:
                block = make_genesis()
                transports[0].gossip(
                    0, Message(kind=KIND_BLOCK, payload=block, body_size=block.size, origin=0)
                )
                # 3 copies from the origin, then each receiver forwards to the
                # other two: 9 arrivals, 6 of them duplicates.
                await _settled_gossip(transports, arrivals=9)
                assert sum(t.stats.messages_sent for t in transports.values()) == 9
                assert [len(accepted[i]) for i in range(4)] == [0, 1, 1, 1]
                assert codec_calls["encode"].count(KIND_BLOCK) == 1
                assert codec_calls["decode"].count(KIND_BLOCK) == 3
            finally:
                await _stop_all(transports)

        asyncio.run(run())

    def test_a_seen_copy_is_counted_without_parsing_its_payload(self, codec_calls):
        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(2))
            transports = await _start_transports(manifest, [0])
            node = transports[0]
            accepted: list[tuple[int, Message]] = []
            node.attach(0, _contract_handler(node, accepted))
            try:
                spec = manifest.peer(0)
                reader, writer = await asyncio.open_connection(spec.host, spec.port)
                first = _tx_message(1)
                writer.write(_hello(1) + frame(encode_message(first)))
                await writer.drain()
                assert await _wait_until(lambda: len(accepted) == 1, timeout=5.0)

                # Same (origin, msg_id), a payload that cannot be decoded:
                # counted as the duplicate it is, and the connection stays up.
                writer.write(_garbage_tx(first.origin, first.msg_id))
                await writer.drain()
                assert await _wait_until(lambda: node.stats.messages_delivered == 2, timeout=5.0)
                assert len(accepted) == 1
                assert codec_calls["decode"].count(KIND_TX) == 1

                # A sync frame is point-to-point: never skipped, whatever its id.
                writer.write(_headers_request(first.origin, first.msg_id))
                await writer.drain()
                assert await _wait_until(lambda: len(accepted) == 2, timeout=5.0)
                assert accepted[1][1].kind == HeadersRequest.kind
                assert node.stats.messages_delivered == 3

                # Offline, the duplicate is an offline drop like any arrival.
                node.set_offline(0, True)
                writer.write(_garbage_tx(first.origin, first.msg_id))
                await writer.drain()
                assert await _wait_until(
                    lambda: node.stats.drops_by_reason["offline"] == 1, timeout=5.0
                )
                node.set_offline(0, False)
                assert node.stats.messages_delivered == 3

                # The same garbage under a fresh id is decoded, and refused.
                writer.write(_garbage_tx(first.origin, first.msg_id + 1))
                await writer.drain()
                assert await _closed_by_peer(reader)
                writer.close()
                assert len(accepted) == 2
                assert node.stats.messages_delivered == 3
            finally:
                await _stop_all(transports)

        asyncio.run(run())


def _spread(
    adjacency: dict[int, list[int]], origin: int, kind: str, rng: random.Random
) -> tuple[set[int], int]:
    """Who a gossip from ``origin`` reaches, and how many copies it costs,
    when every copy sent arrives, in an order ``rng`` picks."""
    message = Message(kind=kind, payload=None, body_size=0, origin=origin)
    reached = {origin}
    in_flight = [(origin, peer) for peer in relay_targets(adjacency, origin, message, None)]
    sent = len(in_flight)
    while in_flight:
        src, dst = in_flight.pop(rng.randrange(len(in_flight)))
        if dst in reached:
            continue
        reached.add(dst)
        onward = relay_targets(adjacency, dst, message, src)
        sent += len(onward)
        in_flight.extend((dst, peer) for peer in onward)
    return reached, sent


class TestRelayRule:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 20),
        degree=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        rng=st.randoms(use_true_random=False),
    )
    def test_every_origin_reaches_every_member_under_both_rules(self, n, degree, seed, rng):
        """A ``tx`` relayed around its origin's neighbours and a flooded
        ``block`` both reach every member, whatever order copies arrive in;
        in a complete overlay the transaction costs n − 1 copies."""
        adjacency = overlay_topology(n, degree, seed=seed)
        complete = all(len(peers) == n - 1 for peers in adjacency.values())
        for origin in adjacency:
            for kind in (KIND_TX, KIND_BLOCK):
                reached, sent = _spread(adjacency, origin, kind, rng)
                assert reached == set(adjacency), (origin, kind)
                if kind == KIND_TX and complete:
                    assert sent == n - 1

    def test_only_a_copy_straight_from_its_origin_skips_the_origins_neighbours(self):
        adjacency = {0: [1, 2], 1: [0, 2, 3], 2: [0, 1, 3], 3: [1, 2]}
        tx = Message(kind=KIND_TX, payload=None, body_size=0, origin=0)
        block = Message(kind=KIND_BLOCK, payload=None, body_size=0, origin=0)
        assert relay_targets(adjacency, 0, tx, None) == [1, 2]
        assert relay_targets(adjacency, 1, tx, 0) == [3]
        assert relay_targets(adjacency, 1, tx, 2) == [0, 3]
        assert relay_targets(adjacency, 1, block, 0) == [2, 3]


class TestReconnect:
    def test_backoff_retries_until_late_server_appears(self):
        async def run() -> None:
            ports = free_ports(2)
            manifest = localhost_manifest(ports=ports)
            dialer = TcpGossipTransport(
                manifest=manifest,
                node_id=0,
                clock=LiveClock(seed=0),
                dial_timeout=0.3,
                backoff_base=0.05,
                backoff_max=0.2,
            )
            await dialer.start()
            try:
                # Peer 1 is not listening yet: dialing must fail and retry.
                assert not await dialer.wait_connected(1, timeout=0.6)
                assert dialer.reconnects >= 1

                late = TcpGossipTransport(
                    manifest=manifest, node_id=1, clock=LiveClock(seed=1)
                )
                await late.start()
                received: list[Message] = []
                late.attach(1, lambda msg, peer: received.append(msg))
                try:
                    assert await dialer.wait_connected(1, timeout=5.0)
                    dialer.unicast(0, 1, _tx_message(0))
                    assert await _wait_until(lambda: received, timeout=5.0)
                finally:
                    await late.stop()
            finally:
                await dialer.stop()

        asyncio.run(run())


class TestBackpressure:
    def test_a_peer_that_never_reads_costs_backlog_drops_not_a_stall(self):
        """Once a peer's unsent bytes reach the bound, further sends to it are
        dropped and counted as ``backlog``; the sender never waits on it."""

        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(3))
            stuck: list[asyncio.StreamWriter] = []

            async def never_read(_reader, writer) -> None:
                stuck.append(writer)

            spec = manifest.peer(1)
            server = await asyncio.start_server(never_read, spec.host, spec.port)
            transports = await _start_transports(manifest, [0, 2])
            received: list[Message] = []
            transports[2].attach(2, lambda message, peer: received.append(message))
            sender = transports[0]
            try:
                assert await sender.wait_connected(2, timeout=5.0)
                big = make_transaction(
                    keypair(0), keypair(9).public.fingerprint(), 1, 0, pad_to=1 << 18
                )
                message = Message(kind=KIND_TX, payload=big, body_size=big.size, origin=0)
                slowest = 0.0
                for _ in range(200):
                    begin = time.perf_counter()
                    sender.unicast(0, 1, message)
                    slowest = max(slowest, time.perf_counter() - begin)
                    if sender.stats.drops_by_reason["backlog"]:
                        break
                    await asyncio.sleep(0.005)  # let the socket drain what it can
                stats = sender.stats
                assert stats.drops_by_reason["backlog"] == 1
                assert stats.messages_sent >= live_transport.SEND_BUFFER_LIMIT // big.size
                assert slowest < 0.5

                sender.unicast(0, 1, message)
                assert stats.drops_by_reason["backlog"] == 2
                sender.unicast(0, 2, _tx_message(0))
                assert await _wait_until(lambda: received, timeout=5.0)
            finally:
                # Nor does shutting down wait for the peer to read.
                await asyncio.wait_for(_stop_all(transports), timeout=5.0)
                for writer in stuck:
                    writer.close()
                server.close()
                await server.wait_closed()

        asyncio.run(run())


def _live_node(
    manifest: ConsortiumManifest,
    node_id: int,
    transport: TcpGossipTransport,
    clock: LiveClock,
    sync: SyncConfig,
) -> MiningNode:
    keys = manifest.keypairs()
    ctx = RunContext(
        sim=clock,
        network=transport,
        oracle=MiningOracle(clock.rng, manifest.difficulty_params().t0),
        genesis=make_genesis(),
        params=manifest.difficulty_params(),
        members=manifest.members(),
    )
    return MiningNode(node_id, keys[node_id], ctx, themis_config(sync=sync))


def _mined_chain(n: int, height: int):
    """A sim-mined chain whose parameters match :func:`localhost_manifest`."""
    ctx, nodes = build_mining_fleet(n=n, seed=7, i0=2.0)
    run_fleet_to_height(ctx, nodes, height=height)
    return nodes[0].main_chain()


class TestSyncOverTcp:
    def test_stale_node_catches_up_via_sync(self):
        chain = _mined_chain(n=2, height=6)

        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(2), i0=2.0)
            transports = await _start_transports(manifest, [0, 1])
            sync = SyncConfig(timeout=2.0, max_retries=2)
            server = _live_node(
                manifest, 0, transports[0], LiveClock(seed=0), sync
            )
            stale = _live_node(
                manifest, 1, transports[1], LiveClock(seed=1), sync
            )
            for block in chain[1:]:
                server._handle_block(block)
            assert server.state.height() == 6
            assert stale.state.height() == 0
            try:
                stale.request_sync(peer=0)
                assert await _wait_until(
                    lambda: stale.state.height() == 6, timeout=10.0
                )
                assert stale.state.head_id == server.state.head_id
                assert stale.sync.stats.syncs_completed == 1
                assert stale.sync.stats.blocks_received == 6
            finally:
                await _stop_all(transports)

        asyncio.run(run())

    def test_timeout_rotates_away_from_dead_peer(self):
        chain = _mined_chain(n=3, height=4)

        async def run() -> None:
            manifest = localhost_manifest(ports=free_ports(3), i0=2.0)
            # Peer 2 never starts: requests to it must time out, and the
            # retry must rotate to the live peer 0.
            transports = await _start_transports(manifest, [0, 1])
            sync = SyncConfig(timeout=0.3, backoff=1.0, max_retries=3)
            server = _live_node(
                manifest, 0, transports[0], LiveClock(seed=0), sync
            )
            stale = _live_node(
                manifest, 1, transports[1], LiveClock(seed=1), sync
            )
            for block in chain[1:]:
                server._handle_block(block)
            try:
                stale.request_sync(peer=2)
                assert await _wait_until(
                    lambda: stale.state.height() == 4, timeout=10.0
                )
                assert stale.sync.stats.timeouts >= 1
                assert stale.sync.stats.retries >= 1
                assert stale.sync.stats.syncs_completed == 1
            finally:
                await _stop_all(transports)

        asyncio.run(run())

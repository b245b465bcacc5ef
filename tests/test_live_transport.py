"""Tests for the asyncio TCP gossip backend and chain sync over real sockets.

Everything here runs real ``127.0.0.1`` connections inside ``asyncio.run``;
timeouts are kept short but generous enough for a loaded CI worker.  The
*deterministic* behavior of the shared consensus code is pinned separately
by ``tests/test_transport_parity.py`` — these tests assert delivery,
reconnection and sync *semantics*, not timing.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.chain.codec import Writer
from repro.chain.genesis import make_genesis
from repro.chain.transaction import make_transaction
from repro.consensus.base import RunContext
from repro.consensus.powfamily import MiningNode, themis_config
from repro.errors import NetworkError
from repro.live.clock import LiveClock
from repro.live.localnet import free_ports
from repro.live.manifest import ConsortiumManifest, localhost_manifest
from repro.live import transport as live_transport
from repro.live.transport import TcpGossipTransport
from repro.mining.oracle import MiningOracle
from repro.net.message import KIND_SYNC_HEADERS_REQUEST, KIND_TX, Message, is_sync_kind
from repro.net.wire import KIND_HELLO, encode_message, frame
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
            Message(kind=KIND_HELLO, payload={"node_id": node_id}, body_size=8, origin=node_id)
        )
    )


def _headers_request(origin: int, msg_id: int) -> bytes:
    return frame(
        encode_message(
            Message(
                kind=KIND_SYNC_HEADERS_REQUEST,
                payload={"request_id": "r", "locator": []},
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
                # 3 copies from the origin, then each receiver forwards to the
                # other two: 9 arrivals, 6 of them duplicates.
                delivered = lambda: sum(t.stats.messages_delivered for t in transports.values())
                assert await _wait_until(lambda: delivered() == 9, timeout=10.0)
                await asyncio.sleep(0.1)
                assert delivered() == 9
                assert sum(t.stats.messages_sent for t in transports.values()) == 9
                assert [len(accepted[i]) for i in range(4)] == [0, 1, 1, 1]
                assert all(
                    got[0][1].payload == message.payload for got in list(accepted.values())[1:]
                )
                assert codec_calls["encode"].count(KIND_TX) == 1
                assert codec_calls["decode"].count(KIND_TX) == 3
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
                assert accepted[1][1].kind == KIND_SYNC_HEADERS_REQUEST
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

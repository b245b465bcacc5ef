"""Tests for the chain-sync protocol (late joiners catching up)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.consensus.powfamily import MiningNode, MiningNodeConfig, themis_config
from repro.errors import SimulationError
from repro.net import wire
from repro.net.message import (
    BlocksRequest,
    BlocksResponse,
    HeadersRequest,
    HeadersResponse,
    Message,
    is_sync_kind,
)
from repro.node.sync import SyncConfig
from repro.sim.fleet import build_stack

from tests.conftest import FAST, TEST_FLEET


class TestChainSync:
    def test_offline_node_catches_up(self):
        """A node that slept through 30 blocks pages them in and rejoins."""
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=6, params=FAST, **TEST_FLEET)
        sleeper = stack.nodes[3]
        stack.network.set_offline(3, True)
        for node in stack.nodes:
            node.start()
        sleeper.stop()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 30)
        assert sleeper.state.height() == 0  # missed everything
        # Wake up and sync from node 0.
        stack.network.set_offline(3, False)
        sleeper.request_sync(0)
        stack.sim.run(until=stack.sim.now + 30.0)
        assert sleeper.state.height() >= 30 - 1

    def test_sync_pages_through_batches(self):
        """Chains longer than one batch need several request rounds."""
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=6, params=FAST, **TEST_FLEET)
        sleeper = stack.nodes[3]
        stack.network.set_offline(3, True)
        for node in stack.nodes:
            node.start()
        sleeper.stop()
        target = sleeper.sync.config.batch * 2 + 10
        stack.sim.run(
            stop_when=lambda: stack.nodes[0].state.height() >= target, max_events=10_000_000
        )
        stack.network.set_offline(3, False)
        sleeper.request_sync(0)
        stack.sim.run(until=stack.sim.now + 60.0)
        assert sleeper.state.height() >= target - 2

    def test_synced_node_resumes_mining(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=9, params=FAST, **TEST_FLEET)
        sleeper = stack.nodes[3]
        stack.network.set_offline(3, True)
        for node in stack.nodes:
            node.start()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 20)
        stack.network.set_offline(3, False)
        produced_before = sleeper.stats.blocks_produced
        sleeper.request_sync(0)
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 60, max_events=5_000_000)
        assert sleeper.stats.blocks_produced > produced_before

    def test_synced_blocks_are_validated(self):
        """Synced blocks go through the same §III checks as gossiped ones."""
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=6, params=FAST, **TEST_FLEET)
        sleeper = stack.nodes[3]
        stack.network.set_offline(3, True)
        for node in stack.nodes:
            node.start()
        sleeper.stop()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 15)
        stack.network.set_offline(3, False)
        sleeper.request_sync(0)
        stack.sim.run(until=stack.sim.now + 30.0)
        # Every synced block passed validation (none rejected, chain matches).
        prefix_height = min(sleeper.state.height(), stack.nodes[0].state.height()) - 1
        assert (
            sleeper.main_chain()[prefix_height].block_id
            == stack.nodes[0].main_chain()[prefix_height].block_id
        )


class TestHostileReplies:
    def test_a_reply_from_a_peer_that_was_never_asked_is_stale(self):
        """Request ids are predictable (``node:counter``), so any live peer
        can echo one.  An empty, non-full headers page from peer 1 used to
        end node 3's sync from peer 0 as a success, and node 3 went back to
        mining at height 0 while the cluster was at 30."""
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=6, params=FAST, **TEST_FLEET)
        sleeper = stack.nodes[3]
        sleeper.crash()
        for node in stack.nodes[:3]:
            node.start()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 30)
        sleeper.restart(sync_peer=0)
        spoof = HeadersResponse(sleeper.sync._request_id, (), False)
        sleeper.on_message(Message(kind=spoof.kind, payload=spoof, body_size=0, origin=1), 1)
        assert sleeper.sync.stats.stale_responses == 1
        assert sleeper.sync.active and sleeper.sync.stats.syncs_completed == 0
        stack.sim.run(until=stack.sim.now + 30.0)
        assert sleeper.sync.stats.syncs_completed == 1
        assert sleeper.state.height() >= 30 - 1


class TestDivergedPages:
    def test_a_held_page_off_the_main_chain_still_advances(self, monkeypatch):
        """The requester already holds the responder's first full headers
        page, on a branch it does not follow.  Asking for the next page with
        a locator built from its own main chain got that page back forever
        (after a long partition: hundreds of thousands of requests); the
        next request resumes after the page's last id instead."""
        batch, divergence = 4, 10
        config = themis_config(sync=SyncConfig(batch=batch))

        def branch(seed: int, height: int) -> list:
            stack = build_stack(MiningNode, [config] * 2, seed=seed, params=FAST, **TEST_FLEET)
            stack.run_to_height(height)
            return stack.nodes[0].main_chain()[1 : height + 1]

        theirs, ours = branch(1, divergence), branch(2, batch + 2)
        stack = build_stack(MiningNode, [config] * 2, params=FAST, **TEST_FLEET)
        requester, responder = stack.nodes
        for block in ours + theirs[:batch]:
            requester._handle_block(block)
        for block in theirs:
            responder._handle_block(block)
        stack.sim.run()  # deliver the gossip the blocks above set off
        assert requester.state.head_id == ours[-1].block_id
        assert theirs[batch - 1].block_id in requester.tree

        served = []
        serve = responder.sync._serve_headers
        monkeypatch.setattr(
            responder.sync, "_serve_headers", lambda *args: served.append(args) or serve(*args)
        )
        requester.request_sync(1)
        stack.sim.run(stop_when=lambda: not requester.sync.active, max_events=20_000)
        assert requester.sync.stats.syncs_completed == 1
        assert requester.state.head_id == theirs[-1].block_id
        assert len(served) <= -(-divergence // batch) + 2


#: Sync kind → (a payload of it, the kind of the one reply it draws, or
#: ``None`` for a response, which is counted instead).
_SYNC_PAYLOADS = {
    HeadersRequest.kind: (HeadersRequest("r", ()), HeadersResponse.kind),
    BlocksRequest.kind: (BlocksRequest("r", ()), BlocksResponse.kind),
    HeadersResponse.kind: (HeadersResponse("r", (), False), None),
    BlocksResponse.kind: (BlocksResponse("r", ()), None),
}


@pytest.mark.parametrize("kind", sorted(k for k in wire._CODECS if is_sync_kind(k)))
def test_every_sync_kind_on_the_wire_is_handled(kind, monkeypatch):
    """A sync kind in the codec table that no handler serves or counts
    fails here (and one without an entry above fails the lookup)."""
    stack = build_stack(MiningNode, [themis_config()] * 2, seed=1, params=FAST, **TEST_FLEET)
    sent: list[tuple[int, int, str]] = []
    monkeypatch.setattr(
        stack.network, "unicast", lambda src, dst, message: sent.append((src, dst, message.kind))
    )
    stats = stack.nodes[0].sync.stats
    payload, reply = _SYNC_PAYLOADS[kind]
    stack.nodes[0].sync.on_message(Message(kind=kind, payload=payload, body_size=0, origin=1), 1)
    counted = stats.responses_received + stats.stale_responses
    if reply is None:
        assert (sent, counted) == ([], 1)
    else:
        assert (sent, counted) == ([(0, 1, reply)], 0)


class TestSyncConfigValidation:
    """SyncConfig is frozen and rejects values that would wedge recovery."""

    def test_rejects_non_positive_batch(self):
        with pytest.raises(SimulationError):
            SyncConfig(batch=0)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(SimulationError):
            SyncConfig(timeout=0.0)
        with pytest.raises(SimulationError):
            SyncConfig(timeout=-1.0)

    def test_rejects_shrinking_backoff(self):
        with pytest.raises(SimulationError):
            SyncConfig(backoff=0.5)

    def test_rejects_zero_retries(self):
        # max_retries=0 would abandon the sync on the very first timeout.
        with pytest.raises(SimulationError):
            SyncConfig(max_retries=0)

    def test_config_is_frozen(self):
        config = SyncConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.batch = 128  # type: ignore[misc]

    def test_node_configs_do_not_share_a_sync_instance(self):
        """Regression: ``sync`` used to be a shared class-level default, so
        (hypothetically mutable) tweaks to one node's sync settings would
        leak into every other node built afterwards."""
        c1 = MiningNodeConfig()
        c2 = MiningNodeConfig()
        assert c1.sync == c2.sync
        assert c1.sync is not c2.sync

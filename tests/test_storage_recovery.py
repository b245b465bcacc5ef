"""Recovery tests: a node restarted against its data dir resumes from disk.

Three layers:

* simulated fleet + attached storage — the persistence hooks record and
  commit exactly what the node's tree holds;
* restore into a fresh node — consensus state (head, heights, GEOST
  arrival order) matches the pre-restart process without any peer
  traffic;
* live end-to-end (marked slow) — a ``run_node`` process killed and
  restarted with the same ``--data-dir`` recovers from disk, converges
  with the cluster, and the explorer serves its chain with ETag caching.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request
from pathlib import Path

from repro.live.localnet import free_ports
from repro.live.manifest import localhost_manifest
from repro.live.node_runner import run_node, storage_db_path
from repro.storage.sqlite import SqliteStorage

from tests.conftest import keypair
from tests.test_powfamily import _block_on, _stopped_fleet, make_fleet, run_to_height


def persist_fleet_node(tmp_path: Path, height: int = 12) -> tuple:
    """Run a simulated fleet with storage attached to node 0."""
    ctx, nodes = make_fleet(4, seed=7)
    db = tmp_path / "node-0.db"
    storage = SqliteStorage(db, snapshot_interval=4)
    nodes[0].attach_storage(storage)
    run_to_height(ctx, nodes, height)
    storage.commit(nodes[0].state.head_id, nodes[0].state.tree, force=True)
    return ctx, nodes, storage, db


class TestSimulatedPersistence:
    def test_hooks_record_the_whole_tree(self, tmp_path):
        ctx, nodes, storage, db = persist_fleet_node(tmp_path)
        tree = nodes[0].state.tree
        recovered = storage.recover()
        assert recovered is not None
        assert recovered.max_height() == tree.max_height()
        assert [b.block_id for b in recovered.iter_blocks()] == [
            b.block_id for b in tree.iter_blocks()
        ]
        assert storage.head()["block_id"] == nodes[0].state.head_id.hex()
        storage.close()

    def test_snapshot_exists_after_enough_heights(self, tmp_path):
        ctx, nodes, storage, db = persist_fleet_node(tmp_path)
        assert storage.last_snapshot_height() >= 4
        storage.close()

    def test_restore_rebuilds_consensus_state(self, tmp_path):
        ctx, nodes, storage, db = persist_fleet_node(tmp_path)
        old_head = nodes[0].state.head_id
        old_height = nodes[0].state.height()
        old_tree = nodes[0].state.tree
        storage.close()

        # A brand-new process: fresh fleet, same genesis/members, no chain.
        ctx2, nodes2 = make_fleet(4, seed=7)
        fresh = nodes2[0]
        assert fresh.state.height() == 0
        fresh.attach_storage(SqliteStorage(db))
        recovered_height = fresh.restore_from_storage()
        assert recovered_height == old_height
        assert fresh.state.head_id == old_head
        # GEOST tie-break state: stored arrival order survives restart.
        for block in old_tree.iter_blocks():
            assert fresh.state.tree.arrival_time(
                block.block_id
            ) == old_tree.arrival_time(block.block_id)
        assert fresh.sync.stats.blocks_received == 0  # no peer traffic at all
        fresh.storage.close()

    def test_restore_from_empty_store_is_a_noop(self, tmp_path):
        ctx, nodes = make_fleet(2, seed=3)
        storage = SqliteStorage(tmp_path / "empty.db")
        nodes[0].storage = storage  # bypass attach: nothing written yet
        assert nodes[0].restore_from_storage() == 0
        assert nodes[0].state.height() == 0
        storage.close()

    def test_a_refused_orphan_does_not_come_back_from_a_snapshot(self, tmp_path):
        """A non-member's block buffered before its parent, snapshotted
        while buffered, then refused when the parent arrives, stays out of a
        restored tree.  While snapshots carried the buffered orphans, restore
        replayed it unjudged under its parent's row."""
        ctx, nodes = _stopped_fleet()
        node = nodes[0]
        db = tmp_path / "node-0.db"
        storage = SqliteStorage(db, snapshot_interval=1)
        node.attach_storage(storage)
        head = node.state.head_block()
        honest = _block_on(node.state, head, nodes[1].keypair)
        forged = _block_on(node.state, honest, keypair(9))
        node._handle_block(forged)
        assert node.tree.orphan_count == 1
        node._handle_block(_block_on(node.state, head, nodes[2].keypair))
        assert storage.snapshot_count() == 1
        node._handle_block(honest)
        assert node.stats.blocks_rejected == 1
        assert forged.block_id not in node.tree
        storage.commit(node.state.head_id, node.state.tree, force=True)
        storage.close()

        _, fresh_nodes = _stopped_fleet()
        fresh = fresh_nodes[0]
        fresh.attach_storage(SqliteStorage(db))
        fresh.restore_from_storage()
        assert honest.block_id in fresh.tree
        assert forged.block_id not in fresh.tree
        assert len(fresh.tree) == len(node.tree)
        fresh.storage.close()

    def test_simulation_without_storage_untouched(self):
        # The default path: no storage attached, hooks are no-ops.
        ctx, nodes = make_fleet(2, seed=1)
        assert all(node.storage is None for node in nodes)
        run_to_height(ctx, nodes, 3)
        assert nodes[0].state.height() >= 3


class TestLiveRecovery:
    def test_killed_node_resumes_from_disk_and_explorer_serves_it(self, tmp_path):
        """The acceptance-criteria flow, in-process for determinism:

        run a 2-node live cluster with ``--data-dir``, stop node 1, let
        node 0 keep mining, restart node 1 against the same data dir and
        assert it (a) recovered its pre-kill chain from disk, (b) pulled
        only the missed suffix from its peer, and (c) is served by the
        explorer with ETag-cached responses.
        """

        async def scenario() -> None:
            manifest = localhost_manifest(ports=free_ports(2), i0=0.25, seed=11)
            data_dir = tmp_path / "data"

            async def member(node_id: int, stop: asyncio.Event, **kwargs):
                return await run_node(
                    manifest=manifest,
                    node_id=node_id,
                    data_dir=data_dir,
                    stop_event=stop,
                    connect_timeout=5.0,
                    **kwargs,
                )

            # Phase 1: both nodes mine until node 1 holds some chain.
            stop0, stop1 = asyncio.Event(), asyncio.Event()
            task0 = asyncio.create_task(member(0, stop0))
            task1 = asyncio.create_task(member(1, stop1))
            await asyncio.sleep(4.0)
            stop1.set()
            node1 = await task1
            killed_height = node1.state.height()
            assert killed_height >= 1, "cluster mined nothing in phase 1"

            # Phase 2: node 0 mines on alone for a while.
            await asyncio.sleep(2.0)

            # Phase 3: node 1 restarts against the same data dir.
            stop1b = asyncio.Event()
            task1b = asyncio.create_task(member(1, stop1b))
            await asyncio.sleep(4.0)
            stop1b.set()
            node1b = await task1b
            stop0.set()
            node0 = await task0

            # (a) Recovery came from disk: the restarted process reached at
            # least its pre-kill height even before sync finished, and
            # RECOVERY, not genesis sync, provided the prefix.
            assert node1b.state.height() >= killed_height
            # (b) Peer sync fetched at most the blocks mined while down —
            # never the whole chain from genesis.
            assert node1b.sync.stats.blocks_received < node1b.state.height()
            # Storage hooks stayed bound the whole run.
            assert node1b.storage is not None
            assert node0.state.height() >= killed_height

        asyncio.run(scenario())

        # (c) Explorer tier over the recovered database.
        db = storage_db_path(tmp_path / "data", 1)
        assert db.exists()
        reader = SqliteStorage(db, read_only=True)
        from repro.explorer.http import start_explorer

        server, thread = start_explorer(reader)
        try:
            host, port = server.server_address[0], server.server_address[1]
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(base + "/chain/head") as response:
                assert response.status == 200
                etag = response.headers["ETag"]
                head = json.loads(response.read())["head"]
            assert head["height"] >= 1
            with urllib.request.urlopen(base + "/blocks?limit=5") as response:
                assert json.loads(response.read())["count"] >= 2
            request = urllib.request.Request(
                base + "/chain/head", headers={"If-None-Match": etag}
            )
            try:
                with urllib.request.urlopen(request) as response:
                    status = response.status
            except urllib.error.HTTPError as error:  # 304 raises in urllib
                status = error.code
            assert status == 304
        finally:
            server.shutdown()
            thread.join()
            server.server_close()
            reader.close()

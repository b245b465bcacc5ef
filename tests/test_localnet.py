"""Tests for the consortium manifest and the localnet cluster driver."""

from __future__ import annotations

import asyncio
import sqlite3

import pytest

from repro.consensus.powfamily import MiningNode, themis_config
from repro.errors import NetworkError
from repro.live.localnet import (
    LocalnetConfig,
    LocalnetError,
    common_prefix_height,
    free_ports,
    read_chain,
    run_localnet,
    storage_turds,
)
from repro.live.manifest import (
    ConsortiumManifest,
    PeerSpec,
    localhost_manifest,
)
from repro.live.node_runner import run_node
from repro.node.node import FullNode
from repro.sim.fleet import build_stack
from repro.storage.sqlite import SqliteStorage

from tests.conftest import TreeBuilder


class TestManifest:
    def test_round_trips_through_file(self, tmp_path):
        manifest = localhost_manifest(ports=[9001, 9002, 9003], seed=5, i0=0.5)
        path = tmp_path / "manifest.json"
        manifest.save(path)
        assert ConsortiumManifest.load(path) == manifest

    def test_load_failure_is_a_network_error(self, tmp_path):
        with pytest.raises(NetworkError, match="cannot load"):
            ConsortiumManifest.load(tmp_path / "missing.json")

    def test_peer_ids_must_be_dense(self):
        with pytest.raises(NetworkError, match="0..n-1"):
            ConsortiumManifest(
                peers=(
                    PeerSpec(node_id=0, host="127.0.0.1", port=9001),
                    PeerSpec(node_id=2, host="127.0.0.1", port=9002),
                )
            )

    def test_node_seeds_are_disjoint_per_member(self):
        manifest = localhost_manifest(ports=[9001, 9002], seed=3)
        seeds = {manifest.node_seed(i) for i in range(manifest.n)}
        assert len(seeds) == manifest.n

    def test_members_match_simulator_fleet_identities(self):
        # Live and simulated deployments must derive the same consortium
        # membership from the same seed material, or signed artifacts would
        # not transfer between modes.
        manifest = localhost_manifest(ports=list(range(9001, 9007)))
        stack = build_stack(MiningNode, [themis_config()] * 6)
        assert manifest.members() == stack.ctx.members

    def test_adjacency_matches_simulator_topology_rules(self):
        small = localhost_manifest(ports=list(range(9001, 9005)))
        assert all(
            sorted(small.adjacency()[i]) == [j for j in range(4) if j != i]
            for i in range(4)
        )
        big = localhost_manifest(ports=list(range(9001, 9011)), degree=3)
        assert all(len(big.adjacency()[i]) >= 3 for i in range(10))


class TestDriverPieces:
    def test_free_ports_are_distinct(self):
        ports = free_ports(8)
        assert len(set(ports)) == 8

    def test_config_validation(self):
        with pytest.raises(LocalnetError, match="two nodes"):
            LocalnetConfig(nodes=1)
        with pytest.raises(LocalnetError, match="target_height"):
            LocalnetConfig(target_height=0)
        with pytest.raises(LocalnetError, match="deadline"):
            LocalnetConfig(deadline=0.0)

    def test_common_prefix_height(self):
        a = [["g", 0], ["b1", 2], ["b2", 1], ["b3", 4]]
        b = [["g", 0], ["b1", 2], ["b2", 1]]
        c = [["g", 0], ["b1", 2], ["x2", 9]]
        assert common_prefix_height([a, b]) == 2
        assert common_prefix_height([a, b, c]) == 1
        assert common_prefix_height([a]) == 3
        assert common_prefix_height([]) == 0
        assert common_prefix_height([[["g", 0]], a]) == 0


class TestReadChain:
    def test_missing_file_or_schema_is_not_ready(self, tmp_path):
        assert read_chain(tmp_path / "absent.db") is None
        (tmp_path / "empty.db").write_bytes(b"")
        assert read_chain(tmp_path / "empty.db") is None
        conn = sqlite3.connect(tmp_path / "meta-only.db")
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        conn.close()
        assert read_chain(tmp_path / "meta-only.db") is None

    def test_reads_the_main_chain_and_lets_go(self, tmp_path, genesis):
        """The stored main chain from genesis up; the read-only connection
        is closed again, so the writer's close checkpoints and removes the
        WAL."""
        builder = TreeBuilder(genesis)
        main = builder.chain(genesis, [0, 1, 2])
        builder.extend(main[0], 3)  # a side branch, not on the main chain
        db = tmp_path / "node-0.db"
        writer = SqliteStorage(db)
        writer.ensure_genesis(genesis)
        for block in list(builder.tree.iter_blocks())[1:]:
            writer.record_block(block, builder.tree.arrival_time(block.block_id))
        writer.commit(main[-1].block_id, builder.tree)
        assert read_chain(db) == [(b.block_id.hex(), 0) for b in [genesis, *main]]
        writer.close()
        assert storage_turds(tmp_path) == []


class TestBackgroundTaskCrash:
    def test_workload_crash_stops_node_loudly(self, monkeypatch):
        # A payment that raises kills the workload task on its first
        # submission.  The node must abort promptly (not sit out the full
        # duration looking hung) and re-raise with the task name and the
        # original cause chained, after a clean shutdown.
        # Two-peer manifest but only node 0 runs: the short connect_timeout
        # lets it start alone, so the test needs no second process.
        def broken_pay(self, recipient, amount):
            raise RuntimeError("payment path broke")

        monkeypatch.setattr(FullNode, "pay", broken_pay)
        manifest = localhost_manifest(ports=free_ports(2))
        with pytest.raises(RuntimeError, match="'workload-0' crashed") as excinfo:
            asyncio.run(
                run_node(
                    manifest=manifest,
                    node_id=0,
                    tx_rate=50.0,
                    connect_timeout=0.2,
                    duration=10.0,
                )
            )
        assert str(excinfo.value.__cause__) == "payment path broke"


class TestEndToEnd:
    def test_three_node_cluster_converges(self, tmp_path):
        data_dir = tmp_path / "data"
        report = run_localnet(
            LocalnetConfig(
                nodes=3,
                target_height=2,
                deadline=45.0,
                tx_rate=10.0,
                i0=0.3,
                data_dir=str(data_dir),
            )
        )
        assert report.converged, report.summary()
        assert report.common_height >= 2
        assert report.committed_txs >= 0
        assert report.tps >= 0.0
        assert sorted(report.node_heights) == [0, 1, 2]
        assert "CONVERGED" in report.summary()
        # Teardown cleanliness: a SIGTERMed node must flush and checkpoint
        # its storage — leaked WAL/journal/temp files mean the shutdown
        # path skipped the storage close.
        assert report.clean_shutdown, "teardown needed SIGKILL"
        assert report.leaked_files == [], (
            f"storage shutdown leaked: {report.leaked_files}"
        )
        for node_id in range(3):
            assert (data_dir / f"node-{node_id}.db").exists()

"""Tests for the durable chain-storage backends (repro.storage)."""

from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest

from tests.conftest import TreeBuilder
from repro.chain.block import Block
from repro.chain.blocktree import BlockTree
from repro.errors import StorageError
from repro.storage.sqlite import SqliteStorage


@pytest.fixture()
def built(genesis: Block) -> TreeBuilder:
    builder = TreeBuilder(genesis)
    builder.chain(genesis, [0, 1, 2, 0, 1, 2, 0, 1])
    return builder


def fill(storage: SqliteStorage, builder: TreeBuilder) -> None:
    tree = builder.tree
    storage.ensure_genesis(builder.genesis)
    for block in tree.iter_blocks():
        if block.height > 0:
            storage.record_block(block, tree.arrival_time(block.block_id))
    storage.commit(tree.iter_blocks().__next__().block_id, tree)


class TestSqliteWriteAndRecover:
    def test_round_trip_preserves_tree(self, tmp_path: Path, built: TreeBuilder) -> None:
        tree = built.tree
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(built.genesis)
        for block in tree.iter_blocks():
            if block.height > 0:
                storage.record_block(block, tree.arrival_time(block.block_id))
        head = max(tree.iter_blocks(), key=lambda b: b.height)
        storage.commit(head.block_id, tree)
        storage.close()

        reopened = SqliteStorage(tmp_path / "chain.db")
        recovered = reopened.recover()
        assert recovered is not None
        assert recovered.max_height() == tree.max_height()
        original = [b.block_id for b in tree.iter_blocks()]
        assert [b.block_id for b in recovered.iter_blocks()] == original
        for block_id in original:
            assert recovered.arrival_time(block_id) == tree.arrival_time(block_id)
        reopened.close()

    def test_commit_is_batched_and_bumps_generation(
        self, tmp_path: Path, built: TreeBuilder
    ) -> None:
        tree = built.tree
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(built.genesis)
        blocks = [b for b in tree.iter_blocks() if b.height > 0]
        for block in blocks:
            storage.record_block(block, tree.arrival_time(block.block_id))
        assert storage.block_row_count() == 1  # only genesis durable so far
        before = storage.generation()
        storage.commit(blocks[-1].block_id, tree)
        assert storage.block_row_count() == 1 + len(blocks)
        assert storage.generation() == before + 1
        storage.close()

    def test_noop_commit_does_not_bump_generation(
        self, tmp_path: Path, built: TreeBuilder
    ) -> None:
        tree = built.tree
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(built.genesis)
        blocks = [b for b in tree.iter_blocks() if b.height > 0]
        for block in blocks:
            storage.record_block(block, tree.arrival_time(block.block_id))
        storage.commit(blocks[-1].block_id, tree)
        generation = storage.generation()
        storage.commit(blocks[-1].block_id, tree)  # nothing new
        assert storage.generation() == generation
        storage.close()

    def test_recover_empty_store_returns_none(self, tmp_path: Path) -> None:
        storage = SqliteStorage(tmp_path / "chain.db")
        assert storage.recover() is None
        storage.close()

    def test_recover_uses_snapshot_then_incremental_rows(
        self, tmp_path: Path, genesis: Block
    ) -> None:
        builder = TreeBuilder(genesis)
        storage = SqliteStorage(tmp_path / "chain.db", snapshot_interval=4)
        storage.ensure_genesis(genesis)
        parent = genesis
        for index in range(4):
            parent = builder.extend(parent, index % 3)
            storage.record_block(parent, builder.tree.arrival_time(parent.block_id))
        storage.commit(parent.block_id, builder.tree)
        assert storage.last_snapshot_height() == 4
        # Blocks after the snapshot land as incremental rows only.
        for index in range(3):
            parent = builder.extend(parent, index % 3)
            storage.record_block(parent, builder.tree.arrival_time(parent.block_id))
        storage.commit(parent.block_id, builder.tree)
        assert storage.last_snapshot_height() == 4  # interval not reached again
        recovered = storage.recover()
        assert recovered is not None
        assert recovered.max_height() == 7
        storage.close()

    def test_recover_keeps_blocks_that_were_orphans_at_snapshot_time(
        self, tmp_path: Path, genesis: Block
    ) -> None:
        source = TreeBuilder(genesis)
        a = source.extend(genesis, 0)
        b = source.extend(a, 1)
        c = source.extend(b, 2)
        d = source.extend(a, 2)
        live = BlockTree(genesis)
        storage = SqliteStorage(tmp_path / "chain.db", snapshot_interval=2)
        storage.ensure_genesis(genesis)
        for block in (a, c, d):  # c arrives before its parent b
            live.add_block(block, source.tree.arrival_time(block.block_id))
            storage.record_block(block, source.tree.arrival_time(block.block_id))
        storage.commit(d.block_id, live)
        assert storage.snapshot_count() == 1 and live.orphan_count == 1
        live.add_block(b, source.tree.arrival_time(b.block_id))
        storage.record_block(b, source.tree.arrival_time(b.block_id))
        storage.commit(c.block_id, live)
        recovered = storage.recover()
        assert recovered is not None
        assert len(recovered) == len(live) == 5
        assert recovered.has_block(c.block_id)
        storage.close()

    def test_snapshot_retention(self, tmp_path: Path, genesis: Block) -> None:
        builder = TreeBuilder(genesis)
        storage = SqliteStorage(tmp_path / "chain.db", snapshot_interval=2)
        storage.ensure_genesis(genesis)
        parent = genesis
        for _ in range(10):
            parent = builder.extend(parent, 0)
            storage.record_block(parent, builder.tree.arrival_time(parent.block_id))
            storage.commit(parent.block_id, builder.tree)
        assert storage.snapshot_count() == 2
        assert storage.last_snapshot_height() == 10
        # Rows are never dropped: every height is served in full.
        assert storage.block_by_height(1) is not None
        assert storage.block_by_height(1)["height"] == 1
        # Recovery reaches the tip via the snapshot.
        recovered = storage.recover()
        assert recovered is not None
        assert recovered.max_height() == 10
        storage.close()

    def test_reorg_rewrites_canonical_index(self, tmp_path: Path, genesis: Block) -> None:
        builder = TreeBuilder(genesis)
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(genesis)
        a1 = builder.extend(genesis, 0)
        a2 = builder.extend(a1, 0)
        for block in (a1, a2):
            storage.record_block(block, builder.tree.arrival_time(block.block_id))
        storage.commit(a2.block_id, builder.tree)
        assert storage.block_by_height(2)["block_id"] == a2.block_id.hex()
        # Competing fork from genesis overtakes the original chain.
        b1 = builder.extend(genesis, 1)
        b2 = builder.extend(b1, 1)
        b3 = builder.extend(b2, 1)
        for block in (b1, b2, b3):
            storage.record_block(block, builder.tree.arrival_time(block.block_id))
        storage.commit(b3.block_id, builder.tree)
        assert storage.tip_height() == 3
        assert storage.block_by_height(1)["block_id"] == b1.block_id.hex()
        assert storage.block_by_height(2)["block_id"] == b2.block_id.hex()
        record = storage.block_by_id(a2.block_id)
        assert record is not None and record["canonical"] is False
        storage.close()

    def test_close_checkpoints_wal(self, tmp_path: Path, built: TreeBuilder) -> None:
        db = tmp_path / "chain.db"
        storage = SqliteStorage(db)
        fill(storage, built)
        storage.close()
        assert not (tmp_path / "chain.db-wal").exists()
        assert not (tmp_path / "chain.db-shm").exists()

    def test_close_refuses_to_drop_uncommitted_blocks(
        self, tmp_path: Path, built: TreeBuilder
    ) -> None:
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(built.genesis)
        block = next(b for b in built.tree.iter_blocks() if b.height == 1)
        storage.record_block(block, 1.0)
        with pytest.raises(StorageError, match="never committed"):
            storage.close()
        storage.commit(block.block_id, built.tree, force=True)
        storage.close()


class TestSqliteGuards:
    def test_foreign_genesis_is_refused(self, tmp_path: Path, genesis: Block) -> None:
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(genesis)
        storage.close()
        other = TreeBuilder(genesis).extend(genesis, 0)
        reopened = SqliteStorage(tmp_path / "chain.db")
        with pytest.raises(StorageError, match="genesis"):
            reopened.ensure_genesis(other)
        reopened.close()

    def test_future_schema_version_is_refused(self, tmp_path: Path) -> None:
        db = tmp_path / "chain.db"
        SqliteStorage(db).close()
        conn = sqlite3.connect(db)
        with conn:
            conn.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
        conn.close()
        with pytest.raises(StorageError, match="schema"):
            SqliteStorage(db)

    def test_read_only_rejects_writes_and_missing_file(
        self, tmp_path: Path, genesis: Block
    ) -> None:
        with pytest.raises(StorageError, match="no chain database"):
            SqliteStorage(tmp_path / "absent.db", read_only=True)
        db = tmp_path / "chain.db"
        writer = SqliteStorage(db)
        writer.ensure_genesis(genesis)
        writer.close()
        reader = SqliteStorage(db, read_only=True)
        with pytest.raises(StorageError, match="read-only"):
            reader.ensure_genesis(genesis)
        reader.close()

    def test_invalid_policy_parameters(self, tmp_path: Path) -> None:
        with pytest.raises(StorageError):
            SqliteStorage(tmp_path / "a.db", batch_size=0)
        with pytest.raises(StorageError):
            SqliteStorage(tmp_path / "b.db", snapshot_interval=0)

"""Tests for chain persistence: a tree survives a round trip through the
block rows of :class:`~repro.storage.sqlite.SqliteStorage`."""

from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest

from repro.chain.block import Block
from repro.chain.blocktree import BlockTree
from repro.chain.forkchoice import GHOSTRule
from repro.consensus.powfamily import MiningNode, themis_config
from repro.core.geost import GEOSTRule
from repro.errors import CodecError
from repro.sim.fleet import build_stack
from repro.storage.sqlite import SqliteStorage

from tests.conftest import FAST, TEST_FLEET, TreeBuilder, keypair


def build_forked_tree(genesis):
    builder = TreeBuilder(genesis)
    a = builder.extend(genesis, 0)
    b = builder.extend(a, 1)
    builder.extend(a, 2)  # fork
    builder.extend(b, 3)
    return builder.tree


def store(tree: BlockTree, db: Path) -> None:
    """Record ``tree``'s blocks in insertion order and commit its head."""
    storage = SqliteStorage(db)
    blocks = list(tree.iter_blocks())
    storage.ensure_genesis(blocks[0])
    for block in blocks[1:]:
        storage.record_block(block, tree.arrival_time(block.block_id))
    storage.commit(GHOSTRule().head(tree), tree)
    storage.close()


def recover(db: Path) -> BlockTree | None:
    reader = SqliteStorage(db, read_only=True)
    try:
        return reader.recover()
    finally:
        reader.close()


def round_trip(tree: BlockTree, db: Path) -> BlockTree:
    store(tree, db)
    recovered = recover(db)
    assert recovered is not None
    return recovered


class TestRoundTrip:
    def test_blocks_preserved(self, genesis, tmp_path):
        tree = build_forked_tree(genesis)
        restored = round_trip(tree, tmp_path / "chain.db")
        assert len(restored) == len(tree)
        for block in tree.iter_blocks():
            assert restored.has_block(block.block_id)

    def test_arrival_order_preserved(self, genesis, tmp_path):
        """GEOST's first-received tie-break must survive a restart."""
        tree = build_forked_tree(genesis)
        restored = round_trip(tree, tmp_path / "chain.db")
        for block in tree.iter_blocks():
            bid = block.block_id
            assert restored.arrival_time(bid) == tree.arrival_time(bid)
            assert restored.arrival_seq(bid) == tree.arrival_seq(bid)
            assert restored.children(bid) == tree.children(bid)

    def test_fork_choice_agrees_after_restore(self, genesis, tmp_path):
        tree = build_forked_tree(genesis)
        restored = round_trip(tree, tmp_path / "chain.db")
        members = [keypair(i).public.fingerprint() for i in range(4)]
        assert GHOSTRule().head(restored) == GHOSTRule().head(tree)
        rule = GEOSTRule(lambda: members)
        assert rule.head(restored) == rule.head(tree)

    def test_subtree_stats_rebuilt(self, genesis, tmp_path):
        tree = build_forked_tree(genesis)
        restored = round_trip(tree, tmp_path / "chain.db")
        for block in tree.iter_blocks():
            assert restored.subtree_size(block.block_id) == tree.subtree_size(
                block.block_id
            )


def corrupt_row(db: Path, block: Block, data: bytes) -> None:
    """Overwrite the stored bytes of ``block``'s row."""
    conn = sqlite3.connect(db)
    with conn:
        conn.execute("UPDATE blocks SET data = ? WHERE block_id = ?", (data, block.block_id))
    conn.close()


class TestFormatDiscipline:
    """Stored rows are decoded strictly: recovery from a damaged row fails
    loudly and never loads a tree, and a real tree survives them whole."""

    def test_trailing_garbage_rejected(self, genesis, tmp_path):
        tree = build_forked_tree(genesis)
        db = tmp_path / "chain.db"
        store(tree, db)
        block = list(tree.iter_blocks())[2]
        corrupt_row(db, block, block.to_bytes() + b"\x00")
        with pytest.raises(CodecError):
            recover(db)

    def test_truncated_stream_rejected(self, genesis, tmp_path):
        """Every possible truncation point must fail loudly, never load."""
        tree = build_forked_tree(genesis)
        db = tmp_path / "chain.db"
        store(tree, db)
        block = list(tree.iter_blocks())[2]
        data = block.to_bytes()
        for cut in (0, 3, 5, len(data) // 2, len(data) - 1):
            corrupt_row(db, block, data[:cut])
            with pytest.raises(CodecError):
                recover(db)

    def test_simulation_tree_roundtrip(self, tmp_path):
        """A real simulated tree (forks, signatures absent) round-trips."""
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=12, params=FAST, **TEST_FLEET)
        stack.run_to_height(30)
        tree = stack.nodes[0].tree
        restored = round_trip(tree, tmp_path / "chain.db")
        assert len(restored) == len(tree)
        assert GHOSTRule().head(restored) == GHOSTRule().head(tree)

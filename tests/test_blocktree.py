"""Tests for the block tree: insertion, orphans, subtree statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.block import BLOCK_VERSION, Block, BlockHeader
from repro.chain.blocktree import BlockTree
from repro.chain.genesis import make_genesis
from repro.errors import DuplicateBlockError

from tests.conftest import TreeBuilder, keypair


class TestInsertion:
    def test_genesis_present(self, genesis):
        tree = BlockTree(genesis)
        assert genesis.block_id in tree
        assert len(tree) == 1

    def test_linear_chain(self, tree_builder):
        blocks = tree_builder.chain(tree_builder.genesis, [0, 1, 2])
        tree = tree_builder.tree
        assert len(tree) == 4
        assert tree.max_height() == 3
        assert [b.height for b in tree.chain_to(blocks[-1].block_id)] == [0, 1, 2, 3]

    def test_duplicate_rejected(self, tree_builder):
        block = tree_builder.extend(tree_builder.genesis, 0)
        with pytest.raises(DuplicateBlockError):
            tree_builder.tree.add_block(block, 99.0)

    def test_children_in_reception_order(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        b = tree_builder.extend(tree_builder.genesis, 1)
        assert tree_builder.tree.children(tree_builder.genesis.block_id) == [
            a.block_id,
            b.block_id,
        ]
        assert tree_builder.tree.arrival_seq(a.block_id) < tree_builder.tree.arrival_seq(
            b.block_id
        )

    def test_parent_of_genesis_is_none(self, genesis):
        assert BlockTree(genesis).parent(genesis.block_id) is None


class TestOrphans:
    def test_orphan_buffered_then_attached(self, genesis):
        from repro.chain.block import build_block

        tree = BlockTree(genesis)
        parent = build_block(keypair(0), genesis.block_id, 1, [], 1.0, 1.0, 1.0, 0)
        child = build_block(keypair(1), parent.block_id, 2, [], 2.0, 1.0, 1.0, 0)
        assert tree.add_block(child, 2.0) is False  # orphan
        assert tree.orphan_count == 1
        assert child.block_id not in tree
        assert tree.add_block(parent, 3.0) is True
        assert tree.orphan_count == 0
        assert child.block_id in tree
        assert tree.max_height() == 2

    def test_orphan_chain_attaches_recursively(self, genesis):
        from repro.chain.block import build_block

        tree = BlockTree(genesis)
        b1 = build_block(keypair(0), genesis.block_id, 1, [], 1.0, 1.0, 1.0, 0)
        b2 = build_block(keypair(1), b1.block_id, 2, [], 2.0, 1.0, 1.0, 0)
        b3 = build_block(keypair(2), b2.block_id, 3, [], 3.0, 1.0, 1.0, 0)
        tree.add_block(b3, 3.0)
        tree.add_block(b2, 3.5)
        assert tree.orphan_count == 2
        tree.add_block(b1, 4.0)
        assert tree.orphan_count == 0
        assert len(tree) == 4

    def test_long_chain_delivered_child_first_attaches_whole(self, genesis):
        """1,200 buffered descendants attach when their root arrives; a
        recursive attach overflowed the stack after ~996 and lost the
        orphans it had already popped."""
        chain = [genesis]
        for height in range(1, 1201):
            header = BlockHeader(
                version=BLOCK_VERSION,
                height=height,
                parent_hash=chain[-1].block_id,
                merkle_root=bytes(32),
                timestamp=float(height),
                producer=keypair(height % 3).public.fingerprint(),
                difficulty_multiple=1.0,
                base_difficulty=1.0,
                epoch=0,
            )
            chain.append(Block(header, None, ()))
        tree = BlockTree(genesis)
        for block in reversed(chain[2:]):
            assert tree.add_block(block, 5.0) is False
        assert tree.orphan_count == 1199
        assert tree.add_block(chain[1], 6.0) is True
        assert tree.orphan_count == 0
        assert len(tree) == 1201
        assert tree.max_height() == 1200
        assert tree.chain_to(chain[-1].block_id) == chain
        # Attached depth first, each at its parent's arrival at the latest.
        assert [tree.arrival_seq(b.block_id) for b in chain] == list(range(1201))
        assert {tree.arrival_time(b.block_id) for b in chain[1:]} == {6.0}

    def test_admission_is_asked_before_every_insert(self, genesis):
        """``admit`` judges the delivered block and each orphan it releases;
        a refused orphan is dropped with everything buffered under it."""
        from repro.chain.block import build_block

        tree = BlockTree(genesis)
        b1 = build_block(keypair(0), genesis.block_id, 1, [], 1.0, 1.0, 1.0, 0)
        b2 = build_block(keypair(1), b1.block_id, 2, [], 2.0, 1.0, 1.0, 0)
        b3 = build_block(keypair(2), b2.block_id, 3, [], 3.0, 1.0, 1.0, 0)
        side = build_block(keypair(2), b1.block_id, 2, [], 2.5, 1.0, 1.0, 0)
        for orphan in (b3, b2, side):
            assert tree.add_block(orphan, 3.0) is False
        asked: list[Block] = []

        def admit(block: Block) -> bool:
            asked.append(block)
            return block is not b2

        assert tree.add_block(b1, 4.0, admit) is True
        assert asked == [b1, b2, side]
        assert b2.block_id not in tree and b3.block_id not in tree
        assert side.block_id in tree
        assert tree.orphan_count == 0
        refused = build_block(keypair(0), genesis.block_id, 1, [], 5.0, 2.0, 1.0, 0)
        assert tree.add_block(refused, 5.0, lambda block: False) is False
        assert refused.block_id not in tree

    def test_orphan_with_a_huge_height_attaches(self, genesis):
        """A tree given no admission check (storage recovery, bare trees)
        takes a header claiming any height the codec's varint carries; it
        stores it without overflowing."""
        header = BlockHeader(
            version=BLOCK_VERSION,
            height=2**70,
            parent_hash=genesis.block_id,
            merkle_root=bytes(32),
            timestamp=1.0,
            producer=keypair(0).public.fingerprint(),
            difficulty_multiple=1.0,
            base_difficulty=1.0,
            epoch=0,
        )
        tall = Block(header, None, ())
        tree = BlockTree(genesis)
        assert tree.add_block(tall, 1.0) is True
        assert tree.max_height() == 2**70
        assert tree.blocks_at_height(2**70) == [tall.block_id]
        assert tree.subtree_size(genesis.block_id) == 2


class TestSubtreeStats:
    def test_subtree_size_counts_inclusive(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        b = tree_builder.extend(a, 1)
        c = tree_builder.extend(a, 2)
        tree = tree_builder.tree
        assert tree.subtree_size(a.block_id) == 3
        assert tree.subtree_size(b.block_id) == 1
        assert tree.subtree_size(tree_builder.genesis.block_id) == 4

    def test_subtree_producers(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        tree_builder.extend(a, 1)
        tree_builder.extend(a, 1)
        counts = tree_builder.tree.subtree_producers(a.block_id)
        assert counts[keypair(0).public.fingerprint()] == 1
        assert counts[keypair(1).public.fingerprint()] == 2

    def test_genesis_producer_not_counted(self, tree_builder):
        tree_builder.extend(tree_builder.genesis, 0)
        counts = tree_builder.tree.subtree_producers(tree_builder.genesis.block_id)
        assert b"\x00" * 20 not in counts

    def test_finality_window_freezes_deep_counters(self, genesis):
        builder = TreeBuilder(genesis, finality_window=4)
        # Grow a 12-block chain; the genesis subtree counter stops updating
        # once the walk falls below max_height - 4.
        blocks = builder.chain(genesis, [0] * 12)
        tree = builder.tree
        assert tree.subtree_size(genesis.block_id) < 13  # frozen lower bound
        # Counters near the tip stay exact.
        assert tree.subtree_size(blocks[-3].block_id) == 3

    def test_no_window_keeps_exact(self, genesis):
        builder = TreeBuilder(genesis, finality_window=None)
        builder.chain(genesis, [0] * 12)
        assert builder.tree.subtree_size(genesis.block_id) == 13


class TestQueries:
    def test_blocks_at_height(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        b = tree_builder.extend(tree_builder.genesis, 1)
        assert set(tree_builder.tree.blocks_at_height(1)) == {a.block_id, b.block_id}
        assert tree_builder.tree.blocks_at_height(9) == []

    def test_leaves(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        b = tree_builder.extend(a, 1)
        c = tree_builder.extend(a, 2)
        assert set(tree_builder.tree.leaves()) == {b.block_id, c.block_id}

    def test_is_ancestor(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        b = tree_builder.extend(a, 1)
        c = tree_builder.extend(tree_builder.genesis, 2)
        tree = tree_builder.tree
        assert tree.is_ancestor(a.block_id, b.block_id)
        assert tree.is_ancestor(tree_builder.genesis.block_id, b.block_id)
        assert not tree.is_ancestor(b.block_id, a.block_id)
        assert not tree.is_ancestor(a.block_id, c.block_id)

    def test_iter_blocks_insertion_order(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        b = tree_builder.extend(tree_builder.genesis, 1)
        ids = [blk.block_id for blk in tree_builder.tree.iter_blocks()]
        assert ids == [tree_builder.genesis.block_id, a.block_id, b.block_id]


class TestPropertyRandomTrees:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=25))
    def test_random_tree_invariants(self, choices):
        """Attach each block to a pseudo-randomly chosen existing parent and
        check global invariants: sizes consistent, chain paths well-formed."""
        from repro.chain.block import build_block

        genesis = make_genesis()
        tree = BlockTree(genesis, finality_window=None)
        blocks = [genesis]
        for i, choice in enumerate(choices):
            parent = blocks[choice % len(blocks)]
            block = build_block(
                keypair(i % 6),
                parent.block_id,
                parent.height + 1,
                [],
                float(i + 1),
                1.0,
                1.0,
                0,
            )
            tree.add_block(block, float(i + 1))
            blocks.append(block)
        # Genesis subtree spans everything.
        assert tree.subtree_size(genesis.block_id) == len(blocks)
        # Subtree sizes are consistent: parent >= 1 + sum(children).
        for block in blocks:
            children = tree.children(block.block_id)
            assert tree.subtree_size(block.block_id) == 1 + sum(
                tree.subtree_size(c) for c in children
            )
        # Producer histograms sum to subtree sizes (minus genesis).
        total = sum(tree.subtree_producers(genesis.block_id).values())
        assert total == len(blocks) - 1
        # chain_to returns consecutive heights from genesis.
        leaf = blocks[-1]
        path = tree.chain_to(leaf.block_id)
        assert [b.height for b in path] == list(range(len(path)))

"""Lazy subtree statistics against the eager tree they replaced.

``tests/ref_blocktree.py`` is the pre-change ``BlockTree`` (every insertion
pushes counters up the ancestor path until the finality cutoff).  The lazy
tree must return the same value from every public accessor for every block
at every moment, orphan attachment included, so every fork-choice decision —
and with it every chain digest — is unchanged.  That holds for each of
several views sharing one :class:`~repro.chain.blocktree.BlockArena`, each
receiving the blocks in its own order.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.block import BLOCK_VERSION, Block, BlockHeader
from repro.chain.blocktree import BlockArena, BlockTree
from repro.chain.forkchoice import GHOSTRule, LongestChainRule
from repro.chain.genesis import make_genesis
from repro.core.difficulty import DifficultyParams
from repro.core.geost import GEOSTRule
from repro.core.themis import ConsensusChainState
from repro.errors import ChainError

from tests.conftest import keypair
from tests.ref_blocktree import EagerBlockTree

GENESIS = make_genesis()
MEMBERS = [keypair(i).public.fingerprint() for i in range(5)]
WINDOWS = [None, 1, 4, 32]


def _child(parent: Block, producer: int, salt: int) -> Block:
    """An unsigned block on ``parent``; ``salt`` keeps siblings distinct."""
    header = BlockHeader(
        version=BLOCK_VERSION,
        height=parent.height + 1,
        parent_hash=parent.block_id,
        merkle_root=bytes(32),
        timestamp=float(salt),
        producer=MEMBERS[producer],
        difficulty_multiple=1.0,
        base_difficulty=1.0,
        epoch=0,
        nonce=salt,
    )
    return Block(header, None, ())


def _heads(tree, start: bytes | None, prefix: Counter | None) -> tuple[bytes, ...]:
    return (
        GEOSTRule(lambda: MEMBERS).head(tree, start=start, prefix=prefix),
        GHOSTRule().head(tree, start=start),
        LongestChainRule().head(tree, start=start),
    )


def _assert_same(lazy: BlockTree, eager: EagerBlockTree, window: int | None) -> None:
    assert len(lazy) == len(eager)
    assert lazy.orphan_count == eager.orphan_count
    assert lazy.max_height() == eager.max_height()
    assert [b.block_id for b in lazy.iter_blocks()] == [b.block_id for b in eager.iter_blocks()]
    assert lazy.leaves() == eager.leaves()
    for height in range(eager.max_height() + 2):
        assert lazy.blocks_at_height(height) == eager.blocks_at_height(height)
    for block in eager.iter_blocks():
        block_id = block.block_id
        assert lazy.get(block_id) == block
        assert lazy.parent(block_id) == eager.parent(block_id)
        assert lazy.subtree_size(block_id) == eager.subtree_size(block_id)
        assert lazy.subtree_producers(block_id) == eager.subtree_producers(block_id)
        assert dict(lazy.subtree_producers_view(block_id)) == dict(
            eager.subtree_producers_view(block_id)
        )
        assert lazy.arrival_seq(block_id) == eager.arrival_seq(block_id)
        assert lazy.arrival_time(block_id) == eager.arrival_time(block_id)
        assert lazy.children(block_id) == eager.children(block_id)
        assert list(lazy.children_view(block_id)) == eager.children(block_id)
    heads = _heads(eager, None, None)
    assert _heads(lazy, None, None) == heads
    # Resume a few heights above the GEOST head, inside the window, with the
    # genesis-to-start histogram the equality tie-break needs.
    path = eager.chain_to(heads[0])
    start = path[max(0, len(path) - 1 - min(window or 3, 3))]
    prefix = Counter(block.producer for block in path[1 : start.height + 1])
    assert _heads(lazy, start.block_id, prefix) == _heads(eager, start.block_id, prefix)


@st.composite
def tree_scripts(draw):
    """(blocks in creation order, arrival order) of a random tree.

    Block ``i`` hangs off one of the five blocks created before it (a long
    backbone with bushy forks), so trees outgrow the smaller windows; the
    arrival order delays some blocks past their descendants, which forces
    orphan buffering and multi-block attachment.
    """
    producers = draw(st.integers(1, 5))
    shape = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, producers - 1), st.integers(0, 6)),
            min_size=1,
            max_size=48,
        )
    )
    blocks = [GENESIS]
    for salt, (back, producer, _) in enumerate(shape, start=1):
        parent = blocks[max(0, len(blocks) - 1 - back)]
        blocks.append(_child(parent, producer, salt))
    order = sorted(range(1, len(blocks)), key=lambda i: (i + shape[i - 1][2], i))
    return blocks, order


class TestLazyMatchesEager:
    @given(script=tree_scripts(), window=st.sampled_from(WINDOWS))
    @settings(max_examples=120, deadline=None)
    def test_every_accessor_after_every_insertion(self, script, window):
        blocks, order = script
        lazy = BlockTree(GENESIS, finality_window=window)
        eager = EagerBlockTree(GENESIS, finality_window=window)
        for index in order:
            attached = lazy.add_block(blocks[index], float(index))
            assert attached == eager.add_block(blocks[index], float(index))
            _assert_same(lazy, eager, window)
        assert lazy.orphan_count == 0

    @pytest.mark.parametrize("window", WINDOWS)
    def test_deep_chain_with_late_forks(self, window):
        """A 70-high backbone, so the 32-window freezes counters too."""
        lazy = BlockTree(GENESIS, finality_window=window)
        eager = EagerBlockTree(GENESIS, finality_window=window)
        backbone = [GENESIS]
        for salt in range(1, 71):
            block = _child(backbone[-1], salt % 5, salt)
            backbone.append(block)
            side = _child(backbone[max(0, salt - 1 - salt % 7)], (salt + 1) % 5, 1000 + salt)
            for new in (block, side):
                lazy.add_block(new, float(salt))
                eager.add_block(new, float(salt))
            if salt % 10 == 0:
                _assert_same(lazy, eager, window)
        _assert_same(lazy, eager, window)


class TestFrozenCountersAreNotExactCounts:
    """The one regime where "just count the subtree" changes fork choice.

    A light branch five blocks long beside a heavy root with three leaves:
    the tallest block sits three heights above the GHOST/GEOST head.  With a
    window of 1 the light branch's root froze at two blocks, so the heavy
    root (four) wins; an exact count (five) would pick the light branch.
    """

    def _build(self, tree_cls):
        tree = tree_cls(GENESIS, finality_window=1)
        heavy = _child(GENESIS, 0, 1)
        light = [_child(GENESIS, 1, 2)]
        for salt in range(3, 7):
            light.append(_child(light[-1], 1, salt))
        leaves = [_child(heavy, producer, 10 + producer) for producer in (2, 3, 4)]
        arrivals = [heavy, light[0], leaves[0], *light[1:3], leaves[1], *light[3:], leaves[2]]
        for seq, block in enumerate(arrivals):
            tree.add_block(block, float(seq))
        return tree, heavy, light

    def test_lazy_keeps_the_frozen_decision(self):
        lazy, heavy, light = self._build(BlockTree)
        eager, _, _ = self._build(EagerBlockTree)
        _assert_same(lazy, eager, 1)
        exact_light = 5
        assert lazy.subtree_size(light[0].block_id) == 2 < exact_light
        assert lazy.subtree_size(heavy.block_id) == 4 < exact_light
        head = GHOSTRule().head(lazy)
        assert lazy.parent(head) == heavy.block_id
        assert GEOSTRule(lambda: MEMBERS).head(lazy) == head
        assert lazy.max_height() - lazy.get(head).height >= 2


PARAMS = DifficultyParams(i0=10.0, h0=1.0, beta=1.0)
VIEWS = 3


@st.composite
def shared_scripts(draw):
    """Blocks of a random tree, and one arrival permutation per view.

    Permutations put most blocks ahead of their parents, so every view
    buffers and attaches orphans, and each view is the first to hand the
    shared arena some blocks.
    """
    blocks, _ = draw(tree_scripts())
    orders = [draw(st.permutations(range(1, len(blocks)))) for _ in range(VIEWS)]
    return blocks, orders


class TestViewsSharingOneArena:
    @given(script=shared_scripts(), window=st.sampled_from(WINDOWS))
    @settings(max_examples=60, deadline=None)
    def test_each_view_matches_its_own_eager_tree(self, script, window):
        blocks, orders = script
        arena = BlockArena(GENESIS)
        states = [
            ConsensusChainState(
                GENESIS, lambda: MEMBERS, PARAMS, finality_window=window, arena=arena
            )
            for _ in range(VIEWS)
        ]
        eagers = [EagerBlockTree(GENESIS, finality_window=window) for _ in range(VIEWS)]
        # Round-robin: the views take turns, so the arena grows under all.
        for step in range(len(blocks) - 1):
            for view, (state, eager) in enumerate(zip(states, eagers, strict=True)):
                block = blocks[orders[view][step]]
                arrival = float(step * VIEWS + view)
                outcome = state.add_block(block, arrival)
                assert (outcome != "orphaned") == eager.add_block(block, arrival)
            for state, eager in zip(states, eagers, strict=True):
                _assert_same(state.tree, eager, window)
                chain = eager.chain_to(state.head_id)
                assert state.main_chain() == chain
                on_chain = {block.block_id: height for height, block in enumerate(chain)}
                for block in blocks:
                    assert state.chain_position(block.block_id) == on_chain.get(block.block_id)
        for state in states:
            assert state.tree.orphan_count == 0
            assert len(state.tree) == len(blocks)
        assert len(arena) == len(blocks)

    def test_a_view_keeps_its_own_copy_of_a_block(self):
        """The id commits to the header only: two views may hold different
        objects for one block, and each reads back its own."""
        arena = BlockArena(GENESIS)
        first, second = (BlockTree(GENESIS, arena=arena) for _ in range(2))
        block = _child(GENESIS, 0, 1)
        copy = Block(block.header, None, ())
        assert copy is not block and copy.block_id == block.block_id
        first.add_block(block, 1.0)
        second.add_block(copy, 2.0)
        assert first.get(block.block_id) is block
        assert second.get(block.block_id) is copy
        assert second.chain_to(block.block_id) == [GENESIS, copy]
        assert len(arena) == 2

    def test_a_view_sees_only_what_it_received(self):
        arena = BlockArena(GENESIS)
        first, second = (BlockTree(GENESIS, arena=arena) for _ in range(2))
        block = _child(GENESIS, 0, 1)
        first.add_block(block, 1.0)
        assert block.block_id not in second
        assert second.children(GENESIS.block_id) == []
        assert second.blocks_at_height(1) == []
        with pytest.raises(KeyError):
            second.get(block.block_id)

    def test_arena_of_another_genesis_is_refused(self):
        other = _child(GENESIS, 0, 1)
        with pytest.raises(ChainError):
            BlockTree(GENESIS, arena=BlockArena(other))

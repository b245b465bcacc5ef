"""Tests for the ConsensusChainState: epochs, anchored tables, reorgs."""

from __future__ import annotations

import pytest

from repro.chain.block import build_block
from repro.chain.genesis import make_genesis
from repro.core.difficulty import DifficultyParams
from repro.core.themis import ChainFacts, ConsensusChainState, make_rule
from repro.errors import ChainError, SimulationError

from tests.conftest import keypair


def members(count: int) -> list[bytes]:
    return [keypair(i).public.fingerprint() for i in range(count)]


def make_state(n: int = 4, beta: float = 1.0, rule: str = "geost", adaptive=True):
    """Δ = β·n blocks per epoch; β=1, n=4 gives Δ=4 for compact tests."""
    member_list = members(n)
    params = DifficultyParams(i0=10.0, h0=1.0, beta=beta)
    state = ConsensusChainState(
        genesis=make_genesis(),
        members_fn=lambda: member_list,
        params=params,
        rule_kind=rule,  # type: ignore[arg-type]
        adaptive=adaptive,
    )
    return state, member_list, params


def extend(state, parent, producer_index, timestamp, multiple=None, base=None):
    """Append a block with table-consistent difficulty fields."""
    height = parent.height + 1
    table = state.governing(parent.block_id)[1]
    producer = keypair(producer_index).public.fingerprint()
    block = build_block(
        keypair(producer_index),
        parent.block_id,
        height,
        [],
        timestamp,
        multiple if multiple is not None else table.multiple(producer),
        base if base is not None else table.base,
        state.epoch_of_height(height),
    )
    state.add_block(block, timestamp)
    return block


class TestEpochs:
    def test_epoch_of_height(self):
        state, _, _ = make_state(n=4, beta=1.0)  # Δ = 4
        assert state.epoch_blocks == 4
        assert state.epoch_of_height(1) == 0
        assert state.epoch_of_height(4) == 0
        assert state.epoch_of_height(5) == 1
        with pytest.raises(ChainError):
            state.epoch_of_height(0)

    def test_make_rule_unknown_rejected(self):
        with pytest.raises(SimulationError):
            make_rule("banana", lambda: [])  # type: ignore[arg-type]


class TestTables:
    def test_epoch0_table_initial(self):
        state, member_list, params = make_state()
        table = state.table_for_anchor(state.genesis.block_id)
        assert table.epoch == 0
        assert table.base == params.initial_base_difficulty(4)
        assert all(table.multiple(m) == 1.0 for m in member_list)

    def test_next_epoch_table_from_counts(self):
        state, member_list, _ = make_state()  # Δ = 4
        # Epoch 0: producer 0 makes all 4 blocks at target intervals.
        parent = state.genesis
        for i in range(4):
            parent = extend(state, parent, 0, timestamp=10.0 * (i + 1))
        table = state.table_for_anchor(parent.block_id)
        assert table.epoch == 1
        # Producer 0: m = max((4·4/4)·1, 1) = 4; everyone else floors at 1.
        assert table.multiple(member_list[0]) == pytest.approx(4.0)
        assert table.multiple(member_list[1]) == 1.0

    def test_interval_controller(self):
        state, _, params = make_state()
        parent = state.genesis
        # Blocks arrive twice as fast as I0: base doubles next epoch.
        for i in range(4):
            parent = extend(state, parent, i % 4, timestamp=5.0 * (i + 1))
        table = state.table_for_anchor(parent.block_id)
        initial = params.initial_base_difficulty(4)
        assert table.base == pytest.approx(initial * 2.0)

    def test_non_adaptive_multiples_stay_one(self):
        state, member_list, _ = make_state(adaptive=False)
        parent = state.genesis
        for i in range(4):
            parent = extend(state, parent, 0, timestamp=10.0 * (i + 1))
        table = state.table_for_anchor(parent.block_id)
        assert all(table.multiple(m) == 1.0 for m in member_list)

    def test_anchor_must_be_boundary(self):
        state, _, _ = make_state()
        b1 = extend(state, state.genesis, 0, 10.0)
        with pytest.raises(ChainError):
            state.table_for_anchor(b1.block_id)

    def test_tables_cached_per_anchor(self):
        state, _, _ = make_state()
        parent = state.genesis
        for i in range(4):
            parent = extend(state, parent, 0, timestamp=10.0 * (i + 1))
        t1 = state.table_for_anchor(parent.block_id)
        t2 = state.table_for_anchor(parent.block_id)
        assert t1 is t2

    def test_forked_boundaries_get_distinct_tables(self):
        """Forks straddling an epoch boundary are validated against their own
        prefix — each boundary block anchors its own table."""
        state, member_list, _ = make_state()
        parent = state.genesis
        for i in range(3):
            parent = extend(state, parent, 0, timestamp=10.0 * (i + 1))
        # Two competing blocks at boundary height 4, different producers.
        fork_a = extend(state, parent, 0, timestamp=40.0)
        fork_b = extend(state, parent, 1, timestamp=41.0)
        table_a = state.table_for_anchor(fork_a.block_id)
        table_b = state.table_for_anchor(fork_b.block_id)
        # Chain A has 4 blocks by producer 0; chain B only 3.
        assert table_a.multiple(member_list[0]) == pytest.approx(4.0)
        assert table_b.multiple(member_list[0]) == pytest.approx(3.0)
        assert table_b.multiple(member_list[1]) == pytest.approx(1.0)

    def test_bare_state_owns_private_facts(self):
        """No facts passed: same code path, an arena of one view."""
        first, _, _ = make_state()
        second, _, _ = make_state()
        assert first.facts is not second.facts
        parent = first.genesis
        for i in range(5):
            parent = extend(first, parent, 0, timestamp=10.0 * (i + 1))
        anchor = first.block_at(4).block_id
        assert first.governing(parent.block_id) == (anchor, first.table_for_anchor(anchor))
        assert first.anchor_for_height(parent.block_id, 6) == anchor
        assert not second.facts.governing and not second.facts.verdicts

    def test_states_given_one_facts_object_share_tables(self):
        facts = ChainFacts()
        member_list = members(4)
        params = DifficultyParams(i0=10.0, h0=1.0, beta=1.0)
        first, second = (
            ConsensusChainState(make_genesis(), lambda: member_list, params, facts=facts)
            for _ in range(2)
        )
        parent = first.genesis
        for i in range(4):
            parent = extend(first, parent, 0, timestamp=10.0 * (i + 1))
            second.add_block(parent, 10.0 * (i + 1))
        assert second.table_for_anchor(parent.block_id) is first.table_for_anchor(
            parent.block_id
        )
        # The uncached derivation is each state's own and agrees by value.
        own = second.derive_table(parent.block_id, second.table_for_anchor)
        assert own is not first.table_for_anchor(parent.block_id)
        assert own == first.table_for_anchor(parent.block_id)

    def test_mining_assignment_tracks_head(self):
        state, member_list, _ = make_state()
        parent = state.genesis
        for i in range(4):
            parent = extend(state, parent, 0, timestamp=10.0 * (i + 1))
        multiple, base, epoch = state.mining_assignment(member_list[0])
        assert epoch == 1
        assert multiple == pytest.approx(4.0)


class TestHeadTracking:
    def test_extension_fast_path(self):
        state, _, _ = make_state()
        b1 = extend(state, state.genesis, 0, 10.0)
        assert state.head_id == b1.block_id
        assert state.height() == 1

    def test_fork_does_not_move_head_without_weight(self):
        state, _, _ = make_state()
        b1 = extend(state, state.genesis, 0, 10.0)
        b2 = extend(state, state.genesis, 1, 11.0)  # later sibling
        assert state.head_id == b1.block_id

    def test_reorg_on_heavier_branch(self):
        state, _, _ = make_state()
        b1 = extend(state, state.genesis, 0, 10.0)
        b2 = extend(state, state.genesis, 1, 11.0)
        # Extend the sibling: its subtree now outweighs b1's.
        b3 = extend(state, b2, 2, 12.0)
        assert state.head_id == b3.block_id

    def test_orphan_then_attach(self):
        state, _, _ = make_state()
        b1 = build_block(keypair(0), state.genesis.block_id, 1, [], 10.0, 1.0, 40.0, 0)
        b2 = build_block(keypair(1), b1.block_id, 2, [], 20.0, 1.0, 40.0, 0)
        assert state.add_block(b2, 20.0) == "orphaned"
        assert state.add_block(b1, 21.0) == "extended"
        assert state.height() == 2


class TestFinality:
    def test_finality_advances_with_head(self):
        state, member_list, _ = make_state(n=4, beta=1.0)
        state_window = state.finality_window
        parent = state.genesis
        for i in range(state_window + 10):
            parent = extend(state, parent, i % 4, timestamp=10.0 * (i + 1))
        final_height = state.tree.get(state._final_id).height
        assert final_height == 10  # head - window
        # Prefix histogram covers exactly the finalized blocks.
        assert sum(state._final_prefix.values()) == final_height

"""Tests for the self-adaptive difficulty mechanism (§IV-A, §IV-B)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.difficulty import (
    MIN_BASE_DIFFICULTY,
    MIN_MULTIPLE,
    DifficultyParams,
    DifficultyTable,
    advance_table,
    next_base_difficulty,
    next_multiples,
)
from repro.crypto.hashing import T_MAX
from repro.errors import DifficultyError

from tests.conftest import keypair


def members(count: int) -> list[bytes]:
    return [keypair(i).public.fingerprint() for i in range(count)]


class TestParams:
    def test_epoch_length_is_beta_n(self):
        assert DifficultyParams(beta=8).epoch_length(100) == 800
        assert DifficultyParams(beta=2).epoch_length(5) == 10

    def test_epoch_length_at_least_one(self):
        assert DifficultyParams(beta=0.001).epoch_length(10) == 1

    def test_validation(self):
        with pytest.raises(DifficultyError):
            DifficultyParams(i0=0)
        with pytest.raises(DifficultyError):
            DifficultyParams(h0=-1)
        with pytest.raises(DifficultyError):
            DifficultyParams(beta=0)
        with pytest.raises(DifficultyError):
            DifficultyParams(t0=0)

    def test_eq7_initial_base(self):
        """E(D_base) = T0·I0·n·H0/T_max (Eq. 7)."""
        params = DifficultyParams(t0=T_MAX, i0=10.0, h0=2.0)
        assert params.initial_base_difficulty(50) == pytest.approx(10.0 * 50 * 2.0)

    def test_eq7_floor_at_one(self):
        params = DifficultyParams(t0=1 << 224, i0=1.0, h0=1.0)
        # T0/T_max = 2^-32 makes the raw value tiny; the §IV-B floor holds.
        assert params.initial_base_difficulty(2) == MIN_BASE_DIFFICULTY


class TestTable:
    def test_initial_all_multiples_one(self):
        m = members(4)
        table = DifficultyTable.initial(m, DifficultyParams())
        assert table.epoch == 0
        assert all(table.multiple(x) == MIN_MULTIPLE for x in m)

    def test_difficulty_is_product(self):
        table = DifficultyTable(epoch=1, base=10.0, multiples={members(1)[0]: 3.0})
        assert table.difficulty(members(1)[0]) == 30.0

    def test_unknown_node_gets_multiple_one(self):
        table = DifficultyTable(epoch=0, base=5.0, multiples={})
        assert table.multiple(b"\x01" * 20) == 1.0

    def test_invalid_values_rejected(self):
        with pytest.raises(DifficultyError):
            DifficultyTable(epoch=0, base=0.5, multiples={})
        with pytest.raises(DifficultyError):
            DifficultyTable(epoch=0, base=1.0, multiples={members(1)[0]: 0.9})


class TestEq6Multiples:
    def test_balanced_counts_keep_multiples(self):
        """q_i = Δ/n for everyone: m stays fixed (f/F0 = 1)."""
        m = members(4)
        table = DifficultyTable(epoch=0, base=1.0, multiples={x: 5.0 for x in m})
        counts = {x: 10 for x in m}
        updated = next_multiples(table, counts, m, epoch_blocks=40)
        assert all(updated[x] == pytest.approx(5.0) for x in m)

    def test_overproducer_multiple_rises(self):
        m = members(2)
        table = DifficultyTable(epoch=0, base=1.0, multiples={x: 1.0 for x in m})
        counts = {m[0]: 15, m[1]: 5}
        updated = next_multiples(table, counts, m, epoch_blocks=20)
        # m0 := (2·15/20)·1 = 1.5 ; m1 := max((2·5/20)·1, 1) = 1 (floored).
        assert updated[m[0]] == pytest.approx(1.5)
        assert updated[m[1]] == MIN_MULTIPLE

    def test_zero_count_floors_to_one(self):
        """Eq. 6's max(·, 1): non-participants fall back to basic difficulty."""
        m = members(2)
        table = DifficultyTable(epoch=0, base=1.0, multiples={m[0]: 64.0, m[1]: 1.0})
        updated = next_multiples(table, {m[1]: 20}, m, epoch_blocks=20)
        assert updated[m[0]] == MIN_MULTIPLE

    def test_new_member_starts_at_one(self):
        m = members(3)
        table = DifficultyTable(epoch=0, base=1.0, multiples={m[0]: 2.0, m[1]: 2.0})
        updated = next_multiples(table, {m[0]: 5, m[1]: 5}, m, epoch_blocks=10)
        assert updated[m[2]] == MIN_MULTIPLE

    def test_input_validation(self):
        m = members(2)
        table = DifficultyTable.initial(m, DifficultyParams())
        with pytest.raises(DifficultyError):
            next_multiples(table, {}, m, epoch_blocks=0)
        with pytest.raises(DifficultyError):
            next_multiples(table, {}, [], epoch_blocks=10)

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=6),
        st.floats(min_value=1.0, max_value=1000.0),
    )
    def test_eq6_formula_property(self, counts, previous_multiple):
        """m^{e+1} = max((n·q/Δ)·m^e, 1), exactly, for every member."""
        m = members(len(counts))
        delta = max(1, sum(counts))
        table = DifficultyTable(
            epoch=0, base=1.0, multiples={x: previous_multiple for x in m}
        )
        block_counts = dict(zip(m, counts, strict=True))
        updated = next_multiples(table, block_counts, m, delta)
        n = len(m)
        for x, q in zip(m, counts, strict=True):
            expected = max(n * q / delta * previous_multiple, 1.0)
            assert updated[x] == pytest.approx(expected)

    def test_equalizing_fixed_point(self):
        """Iterating Eq. 6 on expected counts drives win shares to 1/n.

        Deterministic check of the convergence argument in §IV-A: replace
        the binomial sample by its expectation and iterate.
        """
        powers = [180.0, 50.0, 1.0, 1.0]
        m = members(4)
        delta = 32
        multiples = {x: 1.0 for x in m}
        for _ in range(30):
            rates = [p / multiples[x] for p, x in zip(powers, m, strict=True)]
            total = sum(rates)
            counts = {x: delta * r / total for r, x in zip(rates, m, strict=True)}
            table = DifficultyTable(epoch=0, base=1.0, multiples=multiples)
            multiples = next_multiples(table, counts, m, delta)
        shares = [p / multiples[x] for p, x in zip(powers, m, strict=True)]
        total = sum(shares)
        for share in shares:
            assert share / total == pytest.approx(0.25, rel=0.01)


class TestBaseDifficulty:
    def test_slow_blocks_lower_base(self):
        # Observed interval 20s vs target 10s: halve the difficulty.
        assert next_base_difficulty(100.0, 20.0, 10.0, 4, 4) == pytest.approx(50.0)

    def test_fast_blocks_raise_base(self):
        assert next_base_difficulty(100.0, 5.0, 10.0, 4, 4) == pytest.approx(200.0)

    def test_membership_rescale(self):
        """§IV-C: D_base scales by n^{e+1}/n^e."""
        assert next_base_difficulty(100.0, 10.0, 10.0, 4, 8) == pytest.approx(200.0)
        assert next_base_difficulty(100.0, 10.0, 10.0, 8, 4) == pytest.approx(50.0)

    def test_floor_at_one(self):
        assert next_base_difficulty(1.0, 1000.0, 1.0, 4, 4) == MIN_BASE_DIFFICULTY

    def test_validation(self):
        with pytest.raises(DifficultyError):
            next_base_difficulty(10.0, 0.0, 10.0, 4, 4)
        with pytest.raises(DifficultyError):
            next_base_difficulty(10.0, 10.0, 10.0, 0, 4)


class TestAdvanceTable:
    def test_epoch_increments(self):
        m = members(3)
        params = DifficultyParams(i0=10.0)
        table = DifficultyTable.initial(m, params)
        advanced = advance_table(table, {x: 10 for x in m}, m, 30, 10.0, params)
        assert advanced.epoch == 1

    def test_combines_both_adjustments(self):
        m = members(2)
        params = DifficultyParams(t0=T_MAX, i0=10.0, h0=1.0)
        table = DifficultyTable(epoch=0, base=100.0, multiples={x: 1.0 for x in m})
        advanced = advance_table(
            table, {m[0]: 15, m[1]: 5}, m, 20, observed_interval=5.0, params=params
        )
        assert advanced.base == pytest.approx(200.0)
        assert advanced.multiples[m[0]] == pytest.approx(1.5)

    def test_membership_growth_rescales(self):
        m = members(2)
        params = DifficultyParams(i0=10.0)
        table = DifficultyTable(epoch=0, base=100.0, multiples={x: 1.0 for x in m})
        advanced = advance_table(
            table, {x: 10 for x in m}, m, 20, 10.0, params, n_next=4
        )
        assert advanced.base == pytest.approx(200.0)

"""Tests for the §VII-C evaluation metrics."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.metrics import (
    committed_tps,
    epoch_producer_counts,
    equality_series_from_producers,
    fork_report,
    stable_value,
)

from tests.conftest import keypair


def addr(i: int) -> bytes:
    return keypair(i).public.fingerprint()


class TestEpochSplitting:
    def test_complete_epochs_only(self, tree_builder):
        blocks = tree_builder.chain(tree_builder.genesis, [0, 1, 0, 1, 0])
        chain = [tree_builder.genesis] + blocks
        epochs = epoch_producer_counts(chain, epoch_blocks=2)
        assert len(epochs) == 2  # fifth block is an incomplete epoch
        assert epochs[0][addr(0)] == 1
        assert epochs[0][addr(1)] == 1

    def test_genesis_excluded(self, tree_builder):
        blocks = tree_builder.chain(tree_builder.genesis, [0, 0])
        chain = [tree_builder.genesis] + blocks
        epochs = epoch_producer_counts(chain, epoch_blocks=2)
        assert sum(epochs[0].values()) == 2

    def test_validation(self):
        with pytest.raises(SimulationError):
            epoch_producer_counts([], epoch_blocks=0)


class TestEqualitySeries:
    def test_round_robin_is_zero(self, tree_builder):
        blocks = tree_builder.chain(tree_builder.genesis, [0, 1, 2, 3, 0, 1, 2, 3])
        members = [addr(i) for i in range(4)]
        series = equality_series_from_producers(
            [b.producer for b in blocks], members, epoch_blocks=4
        )
        assert series == [pytest.approx(0.0), pytest.approx(0.0)]

    def test_monopoly_is_high(self, tree_builder):
        blocks = tree_builder.chain(tree_builder.genesis, [0, 0, 0, 0])
        members = [addr(i) for i in range(4)]
        series = equality_series_from_producers(
            [b.producer for b in blocks], members, epoch_blocks=4
        )
        assert series[0] == pytest.approx(3 / 16)

    def test_from_flat_producers(self):
        members = [addr(i) for i in range(3)]
        producers = [addr(0), addr(1), addr(2)] * 2
        series = equality_series_from_producers(producers, members, epoch_blocks=3)
        assert series == [pytest.approx(0.0), pytest.approx(0.0)]


class TestStableValue:
    def test_mean_of_tail(self):
        assert stable_value([9.0, 9.0, 1.0, 2.0, 3.0], tail=3) == pytest.approx(2.0)

    def test_short_series_uses_all(self):
        assert stable_value([2.0, 4.0], tail=5) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            stable_value([])

    def test_empty_tail_rejected(self):
        """``series[-0:]`` is the whole series, not an empty tail."""
        with pytest.raises(SimulationError):
            stable_value([1.0, 2.0, 3.0], tail=0)


class TestTPS:
    def test_formula(self):
        assert committed_tps(100, 2000, 1000.0) == pytest.approx(200.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(SimulationError):
            committed_tps(10, 10, 0.0)


class TestForkReport:
    def test_linear_chain_no_forks(self, tree_builder):
        blocks = tree_builder.chain(tree_builder.genesis, [0, 1, 2])
        chain = [tree_builder.genesis] + blocks
        report = fork_report(tree_builder.tree, chain)
        assert report.fork_rate == 0.0
        assert report.fork_events == 0
        assert report.longest_duration == 0
        assert report.stale_blocks == 0

    def test_single_fork(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        stale = tree_builder.extend(tree_builder.genesis, 1)
        b = tree_builder.extend(a, 0)
        chain = [tree_builder.genesis, a, b]
        report = fork_report(tree_builder.tree, chain)
        assert report.total_blocks == 3
        assert report.stale_blocks == 1
        assert report.fork_rate == pytest.approx(1 / 3)
        assert report.fork_events == 1
        assert report.durations == (1,)

    def test_multi_height_fork_duration(self, tree_builder):
        """A stale subtree persisting two heights has duration 2."""
        a = tree_builder.extend(tree_builder.genesis, 0)
        stale1 = tree_builder.extend(tree_builder.genesis, 1)
        stale2 = tree_builder.extend(stale1, 1)
        b = tree_builder.extend(a, 0)
        c = tree_builder.extend(b, 0)
        chain = [tree_builder.genesis, a, b, c]
        report = fork_report(tree_builder.tree, chain)
        assert report.longest_duration == 2
        assert report.mean_duration == pytest.approx(2.0)

    def test_from_height_excludes_warmup(self, tree_builder):
        stale = tree_builder.extend(tree_builder.genesis, 1)  # height-1 fork
        a = tree_builder.extend(tree_builder.genesis, 0)
        b = tree_builder.extend(a, 0)
        chain = [tree_builder.genesis, a, b]
        full = fork_report(tree_builder.tree, chain, from_height=1)
        trimmed = fork_report(tree_builder.tree, chain, from_height=2)
        assert full.stale_blocks == 1
        assert trimmed.stale_blocks == 0
        assert trimmed.fork_events == 0

"""Tests for the analysis package: fork model, overheads, Table I grading."""

from __future__ import annotations

import math

import pytest

from repro.analysis.comparison import (
    LITERATURE_ROWS,
    Grade,
    format_table,
    grade_equality,
    grade_scalability,
    grade_unpredictability,
)
from repro.analysis.convergence import SettlementTracker, lag_growth_slope
from repro.analysis.forkmodel import fork_rate_model, propagation_delay_estimate
from repro.analysis.stats import CommunicationOverhead, StorageOverhead
from repro.errors import SimulationError
from repro.net.latency import LinkModel

from tests.test_network import ring


class TestForkModel:
    def test_closed_form(self):
        assert fork_rate_model(0.0, 10.0) == 0.0
        assert fork_rate_model(1.0, 10.0) == pytest.approx(1 - math.exp(-0.1))

    def test_monotone_in_delta(self):
        assert fork_rate_model(2.0, 10.0) > fork_rate_model(1.0, 10.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            fork_rate_model(-1.0, 10.0)
        with pytest.raises(SimulationError):
            fork_rate_model(1.0, 0.0)

    def test_propagation_delay_uses_diameter(self):
        link = LinkModel(min_delay=0.1)
        small = propagation_delay_estimate(ring(4), link, 1000)
        big = propagation_delay_estimate(ring(12), link, 1000)
        assert big > small


class TestOverheads:
    def test_storage_8n_per_epoch(self):
        """§VI-C: 8n bytes per epoch (4-byte float + 4-byte int per node)."""
        overhead = StorageOverhead(n=100, epochs=10)
        assert overhead.per_epoch_bytes() == 800
        assert overhead.total_bytes == 8000

    def test_storage_negligible_vs_block(self):
        # §VI-C: 1.06 MB average Bitcoin block dwarfs the 8n bytes.
        overhead = StorageOverhead(n=100, epochs=1)
        assert overhead.relative_to_block(1_060_000) < 0.001

    def test_signature_overhead(self):
        overhead = CommunicationOverhead(blocks=100)
        assert overhead.signature_bytes_per_block == 97  # < the paper's ~128 B
        assert overhead.total_bytes == 9700
        assert overhead.relative_to_block(68_400) < 0.002  # Ethereum-avg block

    def test_validation(self):
        with pytest.raises(SimulationError):
            StorageOverhead(n=10, epochs=1).relative_to_block(0)


class TestTableIGrading:
    def test_equality_grades(self):
        floor = 1e-5
        assert grade_equality(5e-5, floor) is Grade.MEETS
        assert grade_equality(5e-3, floor) is Grade.PARTIAL
        assert grade_equality(5e-1, floor) is Grade.FAILS

    def test_unpredictability_grades(self):
        rr = 9.9e-3
        assert grade_unpredictability(1e-4, rr, predictable=False) is Grade.MEETS
        assert grade_unpredictability(1e-3, rr, predictable=False) is Grade.PARTIAL
        assert grade_unpredictability(1e-4, rr, predictable=True) is Grade.FAILS

    def test_scalability_grades(self):
        assert grade_scalability(1000.0, 650.0) is Grade.MEETS
        assert grade_scalability(1000.0, 200.0) is Grade.PARTIAL
        assert grade_scalability(1000.0, 10.0) is Grade.FAILS
        with pytest.raises(SimulationError):
            grade_scalability(0.0, 10.0)

    def test_literature_rows_match_paper(self):
        by_name = {row.name: row for row in LITERATURE_ROWS}
        assert by_name["Algorand"].scalability is Grade.MEETS
        assert by_name["HoneyB."].scalability is Grade.FAILS
        assert by_name["Pompē"].equality is Grade.NOT_CONSIDERED

    def test_format_table(self):
        text = format_table(list(LITERATURE_ROWS))
        assert "Algorand" in text
        assert "○" in text and "×" in text


class TestConvergenceTools:
    def test_lag_growth_slope(self):
        assert lag_growth_slope([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0)
        assert lag_growth_slope([1.0, 2.0, 3.0]) == pytest.approx(1.0)
        with pytest.raises(SimulationError):
            lag_growth_slope([1.0])

    def test_settlement_tracker_requires_snapshots(self):
        tracker = SettlementTracker()
        with pytest.raises(SimulationError):
            tracker.settlement_lags()

"""Tests for per-epoch reporting."""

from __future__ import annotations

import pytest

from repro.analysis.epochs import epoch_reports, format_epoch_reports
from repro.errors import SimulationError
from repro.sim.runner import ExperimentConfig, run_experiment


@pytest.fixture(scope="module")
def themis_run():
    return run_experiment(ExperimentConfig(algorithm="themis", n=8, epochs=4, seed=2))


class TestEpochReports:
    def test_one_report_per_complete_epoch(self, themis_run):
        reports = epoch_reports(themis_run.observer.state, themis_run.members)
        assert len(reports) >= 4
        assert [r.epoch for r in reports[:4]] == [0, 1, 2, 3]

    def test_heights_partition_the_chain(self, themis_run):
        reports = epoch_reports(themis_run.observer.state, themis_run.members)
        delta = themis_run.epoch_blocks
        for r in reports:
            assert r.end_height - r.start_height + 1 == delta
        for prev, cur in zip(reports, reports[1:], strict=False):
            assert cur.start_height == prev.end_height + 1

    def test_epoch0_multiples_are_one(self, themis_run):
        reports = epoch_reports(themis_run.observer.state, themis_run.members)
        assert reports[0].min_multiple == 1.0
        assert reports[0].max_multiple == 1.0

    def test_adaptation_spreads_multiples(self, themis_run):
        """After epoch 0 the pool nodes' multiples rise above 1."""
        reports = epoch_reports(themis_run.observer.state, themis_run.members)
        assert reports[-1].max_multiple > 1.5

    def test_sigma_matches_run_series(self, themis_run):
        reports = epoch_reports(themis_run.observer.state, themis_run.members)
        for report, expected in zip(reports, themis_run.equality, strict=True):
            assert report.sigma_f2 == pytest.approx(expected)

    def test_requires_complete_epoch(self, genesis):
        from repro.core.difficulty import DifficultyParams
        from repro.core.themis import ConsensusChainState

        state = ConsensusChainState(
            genesis, lambda: [b"\x01" * 20], DifficultyParams(), "ghost"
        )
        with pytest.raises(SimulationError):
            epoch_reports(state, [b"\x01" * 20])


class TestFormatting:
    def test_table_renders(self, themis_run):
        reports = epoch_reports(themis_run.observer.state, themis_run.members)
        text = format_epoch_reports(reports)
        assert "D_base" in text
        assert len(text.splitlines()) == len(reports) + 1

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            format_epoch_reports([])

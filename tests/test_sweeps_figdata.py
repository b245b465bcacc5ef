"""Tests for seed sweeps and their aggregation."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.runner import ExperimentConfig
from repro.sim.sweeps import SweepSummary, summarize, sweep


class TestSweepSummary:
    def test_stats(self):
        summary = SweepSummary((1.0, 2.0, 3.0))
        assert summary.mean == 2.0
        assert summary.median == 2.0
        assert summary.n == 3
        assert summary.std == pytest.approx(1.0)

    def test_confidence_interval_brackets_mean(self):
        summary = SweepSummary((10.0, 12.0, 11.0, 9.0))
        lo, hi = summary.confidence_interval()
        assert lo < summary.mean < hi

    def test_single_value_degenerate(self):
        summary = SweepSummary((5.0,))
        assert summary.std == 0.0
        assert summary.confidence_interval() == (5.0, 5.0)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            SweepSummary(())

    def test_format(self):
        assert "95% CI" in SweepSummary((1.0, 2.0)).format(" tps")


class TestSweep:
    def test_sweep_and_summarize(self):
        base = ExperimentConfig(algorithm="themis", n=8, epochs=2)
        results = sweep(experiment=base, seeds=[1, 2])
        assert len(results) == 2
        assert results[0].config.seed == 1
        summary = summarize(results, lambda r: r.tps)
        assert summary.n == 2
        assert summary.mean > 0

    def test_sweep_is_keyword_only(self):
        base = ExperimentConfig(algorithm="themis", n=8, epochs=2)
        with pytest.raises(TypeError):
            sweep(base, [1, 2])  # type: ignore[misc]

    def test_sweep_rejects_wrong_experiment_type(self):
        with pytest.raises(SimulationError):
            sweep(experiment="themis", seeds=[1])  # type: ignore[arg-type]

    def test_empty_seeds_rejected(self):
        base = ExperimentConfig(algorithm="themis", n=8)
        with pytest.raises(SimulationError):
            sweep(experiment=base, seeds=[])

"""Tests for the experiment runner (small-scale smoke of every algorithm)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.consensus.powfamily import MiningNode
from repro.sim import runner
from repro.sim.runner import ExperimentConfig, run_experiment
from repro.sim.scenarios import (
    ALL_ALGORITHMS,
    attack_spec,
    epoch_length_spec,
    equality_spec,
    fork_spec,
    scalability_spec,
)


def small(algorithm, **overrides):
    defaults = dict(algorithm=algorithm, n=8, epochs=3, pbft_rounds=20, seed=1)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestMiningRuns:
    @pytest.mark.parametrize("algorithm", ["themis", "themis-lite", "pow-h"])
    def test_run_produces_metrics(self, algorithm):
        result = run_experiment(small(algorithm))
        assert result.committed_blocks > 0
        assert result.tps > 0
        assert len(result.equality) == 3
        assert len(result.unpredictability) == 3
        assert result.fork is not None
        assert result.observer is not None
        assert all(v >= 0 for v in result.equality)

    def test_determinism(self):
        a = run_experiment(small("themis"))
        b = run_experiment(small("themis"))
        assert a.equality == b.equality
        assert a.tps == b.tps

    def test_seed_changes_outcome(self):
        a = run_experiment(small("themis", seed=1))
        b = run_experiment(small("themis", seed=2))
        assert a.equality != b.equality

    def test_vulnerable_ratio(self):
        result = run_experiment(small("themis", vulnerable_ratio=0.25))
        assert result.committed_blocks > 0

    def test_uniform_power(self):
        result = run_experiment(small("themis", power="uniform"))
        # Uniform power: already equal, variance near the sampling floor.
        assert result.unpredictability[0] == pytest.approx(0.0, abs=1e-9)

    def test_fleet_is_freed_before_the_result_returns(self, monkeypatch):
        made = []

        class Recorded(MiningNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(runner, "MiningNode", Recorded)
        result = run_experiment(small("themis", epochs=1))
        assert len(made) == 8
        assert [ref() for ref in made if ref() is not None] == [result.observer]
        assert result.observer.ctx.sim.pending_events == 0
        assert result.observer.ctx.network.node_ids == []

    def test_collector_state_is_restored(self):
        assert gc.isenabled()
        run_experiment(small("themis", epochs=1))
        assert gc.isenabled()
        gc.disable()
        try:
            run_experiment(small("themis", epochs=1))
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestPBFTRuns:
    def test_run_produces_metrics(self):
        result = run_experiment(small("pbft", pbft_rounds=70))
        assert result.committed_blocks == 70
        assert result.tps > 0
        assert result.fork is None
        assert result.pbft is not None
        # Round-robin over complete epochs: perfect equality.
        assert result.equality[0] == pytest.approx(0.0)
        # σ_p² is the round-robin constant.
        assert result.unpredictability[0] == pytest.approx(7 / 64)

    def test_pbft_under_attack_has_view_changes(self):
        result = run_experiment(
            small("pbft", n=8, pbft_rounds=16, vulnerable_ratio=0.25)
        )
        assert result.view_changes > 0


class TestScenarios:
    def test_all_specs_construct(self):
        grid = equality_spec(algorithms=ALL_ALGORITHMS).grid
        assert tuple(cfg.algorithm for cfg in grid) == ALL_ALGORITHMS
        assert scalability_spec(ns=(16,), algorithms=("pbft",)).grid[0].n == 16
        attack = attack_spec(ratios=(0.16,), algorithms=("themis",)).grid[0]
        assert attack.vulnerable_ratio == 0.16
        assert fork_spec(algorithms=("pow-h",)).grid[0].i0 == 4.0
        assert epoch_length_spec(betas=(7.0,)).grid[0].beta == 7.0

    def test_epoch_blocks_property(self):
        result = run_experiment(small("themis"))
        assert result.epoch_blocks == 64  # beta 8 × n 8

"""Tests for the experiment runner (small-scale smoke of every algorithm)."""

from __future__ import annotations

import gc
import tracemalloc
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

    def test_live_bytes_per_view_and_block(self, monkeypatch):
        """What a run holds per (node, block) pair, pinned.

        Bytes allocated by the event loop and still live when it returns,
        over the summed tree sizes of the fleet.  With every node's tree a
        set of columns over one shared block arena this reads ≈ 133 B (in
        Python 3.11; it repeats to within a few bytes); per-node entry
        objects, child and height lists and seen sets read 585 B.
        """
        nodes: list[MiningNode] = []

        class Recorded(MiningNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nodes.append(self)

        measured: dict[str, float] = {}
        drive = runner._drive

        def traced_drive(cfg, stack, done):
            before = tracemalloc.get_traced_memory()[0]
            drive(cfg, stack, done)
            live = tracemalloc.get_traced_memory()[0] - before
            measured["per_view_block"] = live / sum(len(node.tree) for node in nodes)

        monkeypatch.setattr(runner, "MiningNode", Recorded)
        monkeypatch.setattr(runner, "_drive", traced_drive)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            run_experiment(ExperimentConfig("themis", n=20, epochs=2, seed=1))
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(nodes) == 20
        assert measured["per_view_block"] <= 150, measured

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

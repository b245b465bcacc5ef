"""Tests for ScenarioSpec and the per-figure spec builders."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.scenarios import (
    ScenarioSpec,
    attack_spec,
    epoch_length_spec,
    equality_spec,
    fork_spec,
    scalability_spec,
)


class TestScenarioSpec:
    def test_empty_grid_rejected(self):
        with pytest.raises(SimulationError, match="empty grid"):
            ScenarioSpec(name="bad", grid=())

    def test_specs_are_frozen_and_hashable(self):
        spec = equality_spec(n=8, epochs=2)
        assert spec == equality_spec(n=8, epochs=2)
        assert hash(spec) == hash(equality_spec(n=8, epochs=2))
        with pytest.raises(AttributeError):
            spec.name = "other"  # type: ignore[misc]

    def test_configs_without_seeds_returns_grid(self):
        spec = equality_spec(n=8, epochs=2)
        assert spec.configs() == spec.grid

    def test_configs_cross_seeds_grid_major(self):
        spec = equality_spec(n=8, epochs=2, algorithms=("themis", "pow-h"))
        crossed = spec.configs(seeds=[5, 6])
        assert [(c.algorithm, c.seed) for c in crossed] == [
            ("themis", 5), ("themis", 6), ("pow-h", 5), ("pow-h", 6),
        ]

    def test_configs_with_empty_seeds_rejected(self):
        with pytest.raises(SimulationError):
            equality_spec(n=8, epochs=2).configs(seeds=[])


class TestBuilders:
    @pytest.mark.parametrize(
        "builder",
        [equality_spec, scalability_spec, attack_spec, fork_spec, epoch_length_spec],
    )
    def test_every_builder_has_a_default_grid(self, builder):
        assert builder().grid

    def test_equality_grid_order_follows_algorithms(self):
        grid = equality_spec(algorithms=("pbft", "themis")).grid
        assert [c.algorithm for c in grid] == ["pbft", "themis"]

    def test_scalability_grid_is_algorithm_major(self):
        spec = scalability_spec(ns=(16, 50), algorithms=("themis", "pbft"))
        assert [(c.algorithm, c.n) for c in spec.grid] == [
            ("themis", 16), ("themis", 50), ("pbft", 16), ("pbft", 50),
        ]

    def test_attack_grid_carries_ratios(self):
        spec = attack_spec(ratios=(0.0, 0.25), algorithms=("themis",))
        assert [c.vulnerable_ratio for c in spec.grid] == [0.0, 0.25]

    def test_epoch_length_epochs_scale_inverse_to_beta(self):
        spec = epoch_length_spec(betas=(2.0, 16.0), height_factor=96)
        by_beta = {c.beta: c.epochs for c in spec.grid}
        assert by_beta[2.0] == 48
        assert by_beta[16.0] == 6



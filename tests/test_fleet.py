"""Tests for the one fleet builder."""

from __future__ import annotations

import pytest

from repro.consensus.powfamily import MiningNode, powh_config, themis_config
from repro.core.difficulty import DifficultyParams
from repro.errors import NetworkError, SimulationError
from repro.net.latency import LinkModel
from repro.node.config import FullNodeConfig
from repro.node.node import FullNode
from repro.sim.fleet import build_stack

THEMIS_4 = [themis_config()] * 4


class TestBuildFleet:
    def test_default_fleet_runs(self):
        stack = build_stack(MiningNode, THEMIS_4, seed=3, params=DifficultyParams(i0=5.0, beta=2.0))
        stack.run_to_height(12)
        assert stack.nodes[0].state.height() >= 12

    def test_calibrated_initial_interval(self):
        """With Eq. 7 calibrated to the invested power (54 over n·H0 = 4),
        epoch 0 already tracks I0."""
        configs = [themis_config(hash_rate=h) for h in (50.0, 2.0, 1.0, 1.0)]
        params = DifficultyParams(i0=8.0, beta=2.0, initial_base_scale=54 / 4)
        stack = build_stack(MiningNode, configs, seed=3, link=LinkModel(jitter=0.01), params=params)
        stack.run_to_height(8)
        chain = stack.nodes[0].main_chain()
        interval = (chain[8].header.timestamp - chain[0].header.timestamp) / 8
        assert interval == pytest.approx(8.0, rel=0.7)  # Poisson noise over 8 blocks

    def test_mixed_configs(self):
        stack = build_stack(MiningNode, [powh_config()] * 3 + [themis_config()])
        assert [node.config.adaptive for node in stack.nodes] == [False, False, False, True]
        stack = build_stack(FullNode, [FullNodeConfig()] * 4)
        assert {type(node) for node in stack.nodes} == {FullNode}
        assert stack.ctx.members == [node.address for node in stack.nodes]

    def test_large_fleet_uses_regular_overlay(self):
        stack = build_stack(MiningNode, [themis_config()] * 20, seed=1, degree=4)
        assert all(len(peers) == 4 for peers in stack.network.adjacency.values())

    def test_validation(self):
        with pytest.raises(NetworkError):
            build_stack(MiningNode, [themis_config()])

    def test_stall_raises(self):
        stack = build_stack(MiningNode, THEMIS_4, seed=1)
        with pytest.raises(SimulationError, match="stalled"):
            stack.run_to_height(10**6, max_events=1000)

    def test_leaving_the_block_releases_the_run(self):
        with build_stack(MiningNode, THEMIS_4, seed=1) as stack:
            stack.run_to_height(3)
        assert stack.nodes == []
        assert stack.network.node_ids == []
        assert stack.sim.pending_events == 0

"""Tests for overlay topologies."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net.topology import (
    complete_topology,
    diameter_hops,
    overlay_topology,
    random_regular_topology,
)


class TestComplete:
    def test_everyone_peers_with_everyone(self):
        adj = complete_topology(5)
        assert all(len(peers) == 4 for peers in adj.values())
        assert diameter_hops(adj) == 1

    def test_minimum_size(self):
        with pytest.raises(NetworkError):
            complete_topology(1)


class TestRandomRegular:
    def test_degree_respected(self):
        adj = random_regular_topology(20, 4, seed=1)
        assert all(len(peers) == 4 for peers in adj.values())
        assert len(adj) == 20

    def test_connected(self):
        adj = random_regular_topology(50, 3, seed=2)
        assert diameter_hops(adj) < 50  # diameter computable => connected

    def test_deterministic_by_seed(self):
        assert random_regular_topology(20, 4, seed=7) == random_regular_topology(
            20, 4, seed=7
        )

    def test_parity_validation(self):
        with pytest.raises(NetworkError):
            random_regular_topology(5, 3)  # n*d odd

    def test_degree_bound(self):
        with pytest.raises(NetworkError):
            random_regular_topology(4, 4)


class TestOthers:
    def test_higher_degree_smaller_diameter(self):
        """The §VI-D out-degree effect: more peers, shorter paths."""
        sparse = random_regular_topology(64, 3, seed=1)
        dense = random_regular_topology(64, 8, seed=1)
        assert diameter_hops(dense) < diameter_hops(sparse)


class TestOverlay:
    """One overlay rule for every run path, simulated or live."""

    @pytest.mark.parametrize(
        ("n", "degree", "expected_degree"),
        [
            (4, 6, 3),  # complete graph
            (7, 6, 6),  # the n = degree + 1 edge: still complete
            (8, 6, 6),  # smallest regular overlay
            (21, 5, 6),  # odd n * degree bumps the degree by one
            (40, 6, 6),  # the default fleet
        ],
    )
    def test_run_paths_share_one_overlay_and_member_list(
        self, n, degree, expected_degree
    ):
        from repro.live.manifest import localhost_manifest
        from repro.sim.fleet import build_mining_fleet
        from repro.sim.runner import ExperimentConfig, run_experiment

        seed = 3
        expected = overlay_topology(n, degree, seed=seed)
        assert {len(peers) for peers in expected.values()} == {expected_degree}
        if n <= degree + 1:
            assert expected == complete_topology(n)
        else:
            assert expected == random_regular_topology(n, expected_degree, seed=seed)

        result = run_experiment(
            ExperimentConfig(n=n, degree=degree, seed=seed, target_height=2)
        )
        ctx, _ = build_mining_fleet(n, seed=seed, degree=degree)
        manifest = localhost_manifest(
            ports=list(range(20000, 20000 + n)), seed=seed, degree=degree
        )
        assert result.observer.ctx.network.adjacency == expected
        assert ctx.network.adjacency == expected
        assert manifest.adjacency() == expected
        assert result.members == ctx.members == manifest.members()

"""Tests for overlay topologies."""

from __future__ import annotations

import hashlib
import json

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
        with pytest.raises(NetworkError):
            random_regular_topology(4, -2)


class TestOthers:
    def test_higher_degree_smaller_diameter(self):
        """The §VI-D out-degree effect: more peers, shorter paths."""
        sparse = random_regular_topology(64, 3, seed=1)
        dense = random_regular_topology(64, 8, seed=1)
        assert diameter_hops(dense) < diameter_hops(sparse)

    @pytest.mark.parametrize(
        "adjacency",
        [
            {0: [1], 1: [0], 2: [3], 3: [2]},  # two components
            {0: [], 1: []},  # no edges at all
            {},  # no nodes
        ],
    )
    def test_diameter_of_a_disconnected_topology_is_a_library_error(self, adjacency):
        with pytest.raises(NetworkError):
            diameter_hops(adjacency)


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
        from repro.consensus.powfamily import MiningNode, themis_config
        from repro.live.manifest import localhost_manifest
        from repro.sim.fleet import build_stack
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
        stack = build_stack(MiningNode, [themis_config()] * n, seed=seed, degree=degree)
        manifest = localhost_manifest(
            ports=list(range(20000, 20000 + n)), seed=seed, degree=degree
        )
        assert result.observer.ctx.network.adjacency == expected
        assert stack.network.adjacency == expected
        assert manifest.adjacency() == expected
        assert result.members == stack.ctx.members == manifest.members()


#: sha256 of ``json.dumps([overlay_topology(n, 6, seed) for seed in range(10)])``
#: per ``n``.  The simulator goldens and digests are built on these overlays,
#: so they are pinned without networkx.
OVERLAY_SHA256 = {
    4: "8eab28e3d52c5813a72cf7bc8c8bc7f4f66b923db540b4fa082cb0f11ca560d3",
    10: "2e5a5b2eb2190ec6831718e8b69138abc1540a29c0f59a8f4cac11dbbcdd1efe",
    20: "19a58a9bdc6d983291b86f5b028db60b0cd35691579172ed931ea15870e2be8a",
    40: "e56833b17ec71534932884be0f79bc100436818022c70748712ced5f2bab3e04",
    100: "99ca5742ad8b4d4ddd39a92b8d2531c640974b75df7b07e7e9c4c616f5c9ae95",
    600: "932d3c30168690866c5bcf2bde20b2c0ae0b8eacfe4a8a1e9fbd652470f67a32",
}


@pytest.mark.parametrize("n", sorted(OVERLAY_SHA256))
def test_overlays_are_pinned(n):
    overlays = [overlay_topology(n, 6, seed) for seed in range(10)]
    assert hashlib.sha256(json.dumps(overlays).encode()).hexdigest() == OVERLAY_SHA256[n]


@pytest.mark.parametrize("n", [*range(3, 41), 50, 60, 100, 200, 600])
def test_the_sampler_is_networkx_random_regular_graph(n):
    """The port draws what ``nx.random_regular_graph`` draws, retry for retry,
    and its diameter is ``nx.diameter``'s."""
    nx = pytest.importorskip("networkx")

    def reference(degree, seed):
        for attempt in range(32):
            graph = nx.random_regular_graph(degree, n, seed=seed + attempt)
            if nx.is_connected(graph):
                return {node: sorted(graph.neighbors(node)) for node in sorted(graph.nodes)}
        return None

    for degree in (2, 3, 4, 5, 6, 8):
        if degree >= n or (n * degree) % 2:
            continue
        for seed in range(30 if n <= 100 else 5):
            expected = reference(degree, seed)
            if expected is None:
                with pytest.raises(NetworkError):
                    random_regular_topology(n, degree, seed=seed)
                continue
            adjacency = random_regular_topology(n, degree, seed=seed)
            assert adjacency == expected, (degree, seed)
            if seed == 0 and n <= 100:  # all-pairs BFS: seconds at n = 600
                assert diameter_hops(adjacency) == nx.diameter(nx.Graph(adjacency))

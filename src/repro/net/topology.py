"""Network topologies.

Gossip dissemination speed depends on the overlay graph; §VI-D notes that
"the fork rate of PoW gradually decreases, as the average out-degree of nodes
increases", so the fork-model benchmark sweeps out-degree.  Topologies are
built with :mod:`networkx` and reduced to adjacency lists keyed by integer
node ids ``0..n-1``.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import NetworkError


def _adjacency(graph: nx.Graph) -> dict[int, list[int]]:
    if not nx.is_connected(graph):
        raise NetworkError("topology must be connected")
    return {node: sorted(graph.neighbors(node)) for node in sorted(graph.nodes)}


def complete_topology(n: int) -> dict[int, list[int]]:
    """Every node peers with every other node (small consortia)."""
    if n < 2:
        raise NetworkError("need at least 2 nodes")
    return _adjacency(nx.complete_graph(n))


def random_regular_topology(n: int, degree: int, seed: int = 0) -> dict[int, list[int]]:
    """A connected random d-regular overlay (the default for large runs).

    Retries with incremented seeds until the sampled graph is connected,
    which for d >= 3 succeeds almost immediately.
    """
    if degree >= n:
        raise NetworkError(f"degree {degree} must be < n {n}")
    if (n * degree) % 2:
        raise NetworkError("n * degree must be even for a regular graph")
    for attempt in range(32):
        graph = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(graph):
            return _adjacency(graph)
    raise NetworkError(f"could not sample a connected {degree}-regular graph")


def overlay_topology(n: int, degree: int, seed: int = 0) -> dict[int, list[int]]:
    """The gossip overlay of every run path, simulated or live.

    A complete graph when ``n <= degree + 1`` (small consortia), otherwise a
    connected random regular graph.  A regular graph needs ``n * degree``
    even, so an odd product raises the degree by one.
    """
    if n <= degree + 1:
        return complete_topology(n)
    if (n * degree) % 2:
        degree += 1
    return random_regular_topology(n, degree, seed=seed)


def diameter_hops(adjacency: dict[int, list[int]]) -> int:
    """Graph diameter in hops (drives the paper's max network delay δ)."""
    graph = nx.Graph()
    for node, peers in adjacency.items():
        graph.add_node(node)
        for peer in peers:
            graph.add_edge(node, peer)
    return nx.diameter(graph)

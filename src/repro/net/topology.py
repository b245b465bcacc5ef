"""Network topologies.

Gossip dissemination speed depends on the overlay graph; §VI-D notes that
"the fork rate of PoW gradually decreases, as the average out-degree of nodes
increases", so the fork-model benchmark sweeps out-degree.  Topologies are
adjacency lists keyed by integer node ids ``0..n-1``, each peer list sorted
and each edge listed at both of its ends.

Random regular overlays come from the Steger–Wormald pairing sampler
(A. Steger and N. Wormald, "Generating random regular graphs quickly",
Combinatorics, Probability and Computing 8, 1999), ported line for line
from NetworkX 3.6.1's ``random_regular_graph``: the same ``random.Random``
stream, shuffles and retry rule, so a given ``(n, degree, seed)`` yields the
same overlay NetworkX gives, and every golden built on one stays put.
"""

from __future__ import annotations

import random
from collections import defaultdict

from repro.errors import NetworkError


def complete_topology(n: int) -> dict[int, list[int]]:
    """Every node peers with every other node (small consortia)."""
    if n < 2:
        raise NetworkError("need at least 2 nodes")
    return {node: [peer for peer in range(n) if peer != node] for node in range(n)}


def _suitable(edges: set[tuple[int, int]], potential_edges: dict[int, int]) -> bool:
    """Whether some leftover stub pair could still become a new edge.

    The swap below rebinds the outer ``s1`` inside the inner loop, exactly as
    the source does; the verdict (and so the random stream) depends on it.
    """
    if not potential_edges:
        return True
    for s1 in potential_edges:
        for s2 in potential_edges:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _try_creation(n: int, degree: int, rng: random.Random) -> set[tuple[int, int]] | None:
    """One pairing run: an edge set, or ``None`` when the leftover stubs are stuck."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * degree
    while stubs:
        # Insertion order of the leftover counts sets the next round's stubs.
        potential_edges: dict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        stubiter = iter(stubs)
        for s1, s2 in zip(stubiter, stubiter):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential_edges[s1] += 1
                potential_edges[s2] += 1
        if not _suitable(edges, potential_edges):
            return None
        stubs = [node for node, potential in potential_edges.items() for _ in range(potential)]
    return edges


def _hops_from(adjacency: dict[int, list[int]], source: int) -> dict[int, int]:
    """Breadth-first hop counts from ``source`` to every node it reaches."""
    hops = {source: 0}
    frontier = [source]
    while frontier:
        reached: list[int] = []
        for node in frontier:
            for peer in adjacency[node]:
                if peer not in hops:
                    hops[peer] = hops[node] + 1
                    reached.append(peer)
        frontier = reached
    return hops


def random_regular_topology(n: int, degree: int, seed: int = 0) -> dict[int, list[int]]:
    """A connected random d-regular overlay (the default for large runs).

    Attempt ``k`` samples with ``random.Random(seed + k)`` until the graph is
    connected, which for d >= 3 succeeds almost immediately.
    """
    if not 0 <= degree < n:
        raise NetworkError(f"degree {degree} must be in [0, n {n})")
    if (n * degree) % 2:
        raise NetworkError("n * degree must be even for a regular graph")
    for attempt in range(32):
        rng = random.Random(seed + attempt)
        edges = _try_creation(n, degree, rng)
        while edges is None:
            edges = _try_creation(n, degree, rng)
        peers: dict[int, list[int]] = {node: [] for node in range(n)}
        for s1, s2 in edges:
            peers[s1].append(s2)
            peers[s2].append(s1)
        if len(_hops_from(peers, 0)) == n:
            return {node: sorted(neighbours) for node, neighbours in peers.items()}
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
    if not adjacency:
        raise NetworkError("an empty topology has no diameter")
    longest = 0
    for node in adjacency:
        hops = _hops_from(adjacency, node)
        if len(hops) < len(adjacency):
            raise NetworkError("topology must be connected")
        longest = max(longest, *hops.values())
    return longest

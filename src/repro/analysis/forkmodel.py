"""The Shahsavari et al. fork-rate model (§VI-D).

§VI-D: "Y. Shahsavari et al. established a model analyzing fork in Bitcoin
network and concluded that the fork rate of PoW is ``1 − e^{−δ/I0}``", where
``δ`` is the block propagation delay and ``I0`` the mean block interval; and
"their experimental results show that the fork rate of PoW gradually
decreases, as the average out-degree of nodes increases."

This module provides the closed-form model plus an estimate of ``δ`` for our
gossip overlay, so the Fig. 8 / §VI-D benchmarks can compare measured fork
rates against the analytic curve.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError
from repro.net.latency import LinkModel
from repro.net.topology import diameter_hops


def fork_rate_model(delta: float, i0: float) -> float:
    """Analytic fork rate ``1 − e^{−δ/I0}``.

    Derivation: block production is Poisson with rate ``1/I0``; a fork occurs
    when another block lands within the ``δ`` window before the first block
    reaches everyone.
    """
    if delta < 0:
        raise SimulationError("δ must be non-negative")
    if i0 <= 0:
        raise SimulationError("I0 must be positive")
    return 1.0 - math.exp(-delta / i0)


def propagation_delay_estimate(
    adjacency: dict[int, list[int]],
    link: LinkModel,
    block_bytes: int,
) -> float:
    """Estimate the network transmission diameter ``δ`` for a gossip overlay.

    A block traverses ``diameter`` hops in the worst case; each hop costs the
    propagation delay plus the sender's serialization of the block (gossip
    forwards to ``degree`` peers, but the first copy leaves after one
    serialization slot).
    """
    hops = diameter_hops(adjacency)
    per_hop = link.min_delay + link.serialization_time(block_bytes)
    return hops * per_hop


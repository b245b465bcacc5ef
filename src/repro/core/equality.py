"""Equality and Unpredictability statistics (Eq. 1 and Eq. 2).

* *Equality* is measured by the variance of block-producing frequency,
  ``σ_f² = Var({f_i})`` with ``f_i = q_i / Δ`` — ``q_i`` blocks produced by
  node *i* out of ``Δ`` blocks in a counting window (Eq. 1).
* *Unpredictability* is measured by the variance of block-producing
  probability, ``σ_p² = Var({p_i})`` (Eq. 2).

Both are *population* variances over the full consensus node set: nodes that
produced nothing contribute ``f_i = 0`` and must be included, otherwise a
chain produced entirely by one pool would look perfectly "equal".
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from statistics import pvariance

from repro.errors import SimulationError


def frequency_vector(
    producer_counts: Mapping[bytes, int], node_ids: Sequence[bytes]
) -> list[float]:
    """Per-node block-producing frequencies ``f_i = q_i / Δ`` (Eq. 1).

    ``Δ`` is the total number of counted blocks; nodes absent from
    ``producer_counts`` get frequency 0.  Producers outside ``node_ids``
    (e.g. an expelled member's residual blocks) still contribute to ``Δ``.
    """
    if not node_ids:
        raise SimulationError("node set must be non-empty")
    total = sum(producer_counts.values())
    if total == 0:
        return [0.0] * len(node_ids)
    return [producer_counts.get(node, 0) / total for node in node_ids]


def variance_of_frequency(
    producer_counts: Mapping[bytes, int], node_ids: Sequence[bytes]
) -> float:
    """``σ_f²`` — population variance of block-producing frequency (Eq. 1)."""
    return pvariance(frequency_vector(producer_counts, node_ids))


def variance_of_probability(probabilities: Sequence[float]) -> float:
    """``σ_p²`` — population variance of block-producing probability (Eq. 2).

    The probability vector must sum to ~1 (one block is produced per round).
    """
    if len(probabilities) == 0:
        raise SimulationError("probability vector must be non-empty")
    total = math.fsum(probabilities)
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise SimulationError(f"probabilities must sum to 1, got {total:.6f}")
    return pvariance(probabilities)


def round_robin_probability_variance(n: int) -> float:
    """``σ_p²`` of a fully predictable round-robin leader schedule (PBFT).

    Each round one node has probability 1 and the rest 0, so
    ``Var = (n-1)/n²``.  This is the per-round value the paper's Fig. 5
    plots orders of magnitude above the probabilistic algorithms.
    """
    if n < 1:
        raise SimulationError("n must be positive")
    return (n - 1) / (n * n)

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

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import SimulationError


def frequency_vector(
    producer_counts: Mapping[bytes, int], node_ids: Sequence[bytes]
) -> np.ndarray:
    """Per-node block-producing frequencies ``f_i = q_i / Δ`` (Eq. 1).

    ``Δ`` is the total number of counted blocks; nodes absent from
    ``producer_counts`` get frequency 0.  Producers outside ``node_ids``
    (e.g. an expelled member's residual blocks) still contribute to ``Δ``.
    """
    if not node_ids:
        raise SimulationError("node set must be non-empty")
    total = sum(producer_counts.values())
    counts = np.array([producer_counts.get(node, 0) for node in node_ids], dtype=float)
    if total == 0:
        return counts
    return counts / total


def variance_of_frequency(
    producer_counts: Mapping[bytes, int], node_ids: Sequence[bytes]
) -> float:
    """``σ_f²`` — population variance of block-producing frequency (Eq. 1)."""
    return float(np.var(frequency_vector(producer_counts, node_ids)))


def variance_of_probability(probabilities: Sequence[float] | np.ndarray) -> float:
    """``σ_p²`` — population variance of block-producing probability (Eq. 2).

    The probability vector must sum to ~1 (one block is produced per round).
    """
    arr = np.asarray(probabilities, dtype=float)
    if arr.size == 0:
        raise SimulationError("probability vector must be non-empty")
    if not np.isclose(arr.sum(), 1.0, atol=1e-6):
        raise SimulationError(f"probabilities must sum to 1, got {arr.sum():.6f}")
    return float(np.var(arr))


def round_robin_probability_variance(n: int) -> float:
    """``σ_p²`` of a fully predictable round-robin leader schedule (PBFT).

    Each round one node has probability 1 and the rest 0, so
    ``Var = (n-1)/n²``.  This is the per-round value the paper's Fig. 5
    plots orders of magnitude above the probabilistic algorithms.
    """
    if n < 1:
        raise SimulationError("n must be positive")
    return (n - 1) / (n * n)

"""Evaluation metrics (§VII-C).

Implements the paper's four metrics over simulation outputs:

* **variance of block-producing frequency** ``σ_f²`` per counting epoch
  (Equality, Fig. 4);
* **variance of block-producing probability** ``σ_p²`` per epoch
  (Unpredictability, Fig. 5) — computed from the true powers and the
  difficulty table in force during the epoch, since the probability of
  winning a round is the effective-power share (Eq. 3);
* **TPS** — committed transactions per simulated second (Fig. 6, Fig. 7);
* **fork rate and fork duration** over the final block tree (Fig. 8).

Chaos experiments additionally get a :class:`ChaosReport` — per-fault
counts read off the fault log plus recovery evidence (how many restarted nodes produced again) —
and :func:`degradation_ratio` for graceful-degradation assertions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.chain.block import Block
from repro.chain.blocktree import BlockTree
from repro.chain.forkchoice import subtree_max_height
from repro.core.equality import variance_of_frequency, variance_of_probability
from repro.core.themis import ConsensusChainState
from repro.errors import SimulationError
from repro.mining.power import PowerProfile


# -- Equality (Fig. 4) ---------------------------------------------------------------


def epoch_producer_counts(
    chain: Sequence[Block], epoch_blocks: int
) -> list[Counter]:
    """Split a main chain into epochs of ``Δ`` blocks and count producers.

    Only complete epochs are returned; genesis is excluded.
    """
    if epoch_blocks < 1:
        raise SimulationError("epoch_blocks must be positive")
    body = [b for b in chain if b.height > 0]
    epochs: list[Counter] = []
    for start in range(0, len(body) - epoch_blocks + 1, epoch_blocks):
        window = body[start : start + epoch_blocks]
        counts: Counter = Counter()
        for block in window:
            counts[block.producer] += 1
        epochs.append(counts)
    return epochs


def equality_series_from_producers(
    producers: Sequence[bytes], members: Sequence[bytes], epoch_blocks: int
) -> list[float]:
    """``σ_f²`` per complete epoch of a producer sequence (the Fig. 4 series)."""
    series: list[float] = []
    for start in range(0, len(producers) - epoch_blocks + 1, epoch_blocks):
        window = producers[start : start + epoch_blocks]
        series.append(variance_of_frequency(Counter(window), members))
    return series


def stable_value(series: Sequence[float], tail: int = 5, robust: bool = False) -> float:
    """The paper's "stable value": mean of the last ``tail`` epochs (Fig. 9,
    footnote 15).

    ``robust=True`` takes the median instead — Eq. 6's ``max(·, 1)`` reset
    occasionally fires a one-epoch burst (a strong node whose multiple
    overshot samples ``q = 0`` and falls back to basic difficulty; see
    EXPERIMENTS.md), and a single burst epoch would otherwise dominate the
    mean.
    """
    if not series:
        raise SimulationError("series is empty")
    if tail < 1:
        raise SimulationError("tail must be positive")
    window = series[-tail:]
    return float(np.median(window) if robust else np.mean(window))


# -- Unpredictability (Fig. 5) ----------------------------------------------------------


def probability_vector_for_epoch(
    state: ConsensusChainState,
    profile: PowerProfile,
    members: Sequence[bytes],
    epoch: int,
) -> np.ndarray:
    """Per-node win probabilities in an epoch (Eq. 3).

    ``p_i = (h_i/m_i) / Σ_j (h_j/m_j)`` — the shared ``D_base`` cancels.
    The difficulty table is resolved along the observer's main chain.
    """
    anchor_height = epoch * state.epoch_blocks
    head = state.head_id
    if state.tree.get(head).height < anchor_height:
        raise SimulationError(f"main chain has not reached epoch {epoch}")
    anchor = state.anchor_for_height(head, anchor_height + 1)
    table = state.table_for_anchor(anchor)
    rates = np.array(
        [profile.powers[i] / table.multiple(members[i]) for i in range(len(members))],
        dtype=float,
    )
    return rates / rates.sum()


def unpredictability_series(
    state: ConsensusChainState,
    profile: PowerProfile,
    members: Sequence[bytes],
    epochs: int,
) -> list[float]:
    """``σ_p²`` per epoch (the Fig. 5 series)."""
    return [
        variance_of_probability(
            probability_vector_for_epoch(state, profile, members, epoch)
        )
        for epoch in range(epochs)
    ]


# -- TPS (Fig. 6, Fig. 7) ------------------------------------------------------------------


def committed_tps(
    committed_blocks: int, batch_size: int, duration: float
) -> float:
    """Committed transactions per second under saturated load.

    Blocks are full at ``batch_size`` (the standard TPS-benchmark regime);
    stale blocks never count because their transactions re-enter later
    blocks, so goodput is main-chain growth × batch.
    """
    if duration <= 0:
        raise SimulationError("duration must be positive")
    return committed_blocks * batch_size / duration


# -- Forks (Fig. 8) ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ForkReport:
    """Fork statistics over one finished run (observer's block tree)."""

    total_blocks: int
    main_chain_blocks: int
    stale_blocks: int
    fork_events: int
    fork_rate: float
    durations: tuple[int, ...]

    @property
    def longest_duration(self) -> int:
        """Longest fork duration in block heights (Fig. 8's headline stat)."""
        return max(self.durations, default=0)

    @property
    def mean_duration(self) -> float:
        return float(np.mean(self.durations)) if self.durations else 0.0


def fork_report(
    tree: BlockTree, main_chain: Sequence[Block], from_height: int = 1
) -> ForkReport:
    """Measure fork rate and durations on a block tree.

    * *fork rate* — stale blocks / total blocks, the fraction of produced
      blocks that never reached the main chain;
    * *fork duration* — for each stale subtree branching off the main chain,
      the number of heights from the branch point to the subtree's deepest
      block ("from the start to the end block height during a fork",
      §VII-C).

    ``from_height`` excludes the difficulty-bootstrap warmup: the first
    epoch's block intervals are far from ``I0`` until ``D_base`` calibrates
    to the actual invested power, which would inflate fork statistics.
    """
    max_height = main_chain[-1].height
    total = 0
    for height in range(from_height, max_height + 1):
        total += len(tree.blocks_at_height(height))
    main_blocks = sum(1 for b in main_chain if b.height >= from_height)
    stale = total - main_blocks
    main_ids = {b.block_id for b in main_chain}
    durations: list[int] = []
    events = 0
    for block in main_chain:
        for child in tree.children(block.block_id):
            if child in main_ids:
                continue
            branch_height = tree.get(child).height
            if branch_height < from_height:
                continue
            events += 1
            deepest = subtree_max_height(tree, child)
            durations.append(deepest - branch_height + 1)
    fork_rate = stale / total if total else 0.0
    return ForkReport(
        total_blocks=total,
        main_chain_blocks=main_blocks,
        stale_blocks=stale,
        fork_events=events,
        fork_rate=fork_rate,
        durations=tuple(durations),
    )


# -- Chaos (fault-injection runs) --------------------------------------------------------------


@dataclass(frozen=True)
class ChaosReport:
    """Per-fault counters and recovery evidence for one chaos run."""

    crashes: int
    restarts: int
    partitions: int
    heals: int
    link_faults: int
    clock_skews: int
    messages_dropped: int
    messages_duplicated: int
    recovered_producers: int
    invariant_checks: int
    invariant_violations: int

    def summary(self) -> str:
        return (
            f"chaos: {self.crashes} crashes ({self.recovered_producers} recovered "
            f"producers), {self.partitions} partitions ({self.heals} healed), "
            f"{self.link_faults} link faults, {self.clock_skews} clock skews, "
            f"{self.messages_dropped} msgs dropped, "
            f"{self.invariant_checks} invariant checks "
            f"({self.invariant_violations} violations)"
        )


def chaos_report(controller, network_stats, monitor) -> ChaosReport:
    """Summarize a run's injected faults and their observable impact.

    Fault counts are the controller's log entries per action.

    Args:
        controller: the run's :class:`~repro.chaos.faults.ChaosController`.
        network_stats: the run's :class:`~repro.net.transport.NetworkStats`.
        monitor: the run's :class:`~repro.chaos.invariants.InvariantMonitor`.
    """
    actions = Counter(event.action for event in controller.log)
    report = monitor.report
    return ChaosReport(
        crashes=actions["crash"],
        restarts=actions["restart"],
        partitions=actions["partition"],
        heals=actions["heal"],
        link_faults=actions["link_fault"],
        clock_skews=actions["clock_skew"],
        messages_dropped=network_stats.messages_dropped,
        messages_duplicated=network_stats.messages_duplicated,
        recovered_producers=controller.recovered_producer_count(),
        invariant_checks=report.checks_run,
        invariant_violations=report.safety_violations + report.liveness_violations,
    )


def degradation_ratio(baseline: float, degraded: float) -> float:
    """``degraded / baseline`` — 1.0 means no impact, 0.0 means collapse.

    The graceful-degradation contract of the chaos benchmarks: under 20 %
    node churn TPS and σ_f² should *degrade*, not collapse, so ratios are
    asserted against a floor rather than equality.
    """
    if baseline <= 0:
        raise SimulationError("baseline must be positive")
    return degraded / baseline

"""Per-epoch reporting over a finished chain.

Aggregates what the difficulty machinery did each epoch — observed interval,
``D_base`` trajectory, the spread of multiples, per-epoch σ_f² — into one
report object.  This is the inspection surface the CLI and EXPERIMENTS.md
use to narrate a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from statistics import fmean

from repro.core.equality import variance_of_frequency
from repro.core.themis import ConsensusChainState
from repro.errors import SimulationError
from repro.sim.metrics import epoch_producer_counts


@dataclass(frozen=True)
class EpochReport:
    """One difficulty epoch, summarized."""

    epoch: int
    start_height: int
    end_height: int
    observed_interval: float
    base_difficulty: float
    min_multiple: float
    max_multiple: float
    mean_multiple: float
    sigma_f2: float
    top_producer_share: float


def epoch_reports(
    state: ConsensusChainState, members: Sequence[bytes]
) -> list[EpochReport]:
    """Build a report for every complete epoch on the state's main chain."""
    chain = state.main_chain()
    delta = state.epoch_blocks
    complete = (len(chain) - 1) // delta
    if complete == 0:
        raise SimulationError("no complete epoch on the main chain yet")
    counts_per_epoch = epoch_producer_counts(chain, delta)
    reports: list[EpochReport] = []
    for epoch in range(complete):
        start = epoch * delta + 1
        end = (epoch + 1) * delta
        first_ts = chain[start - 1].header.timestamp
        last_ts = chain[end].header.timestamp
        anchor = state.anchor_for_height(state.head_id, start)
        table = state.table_for_anchor(anchor)
        multiples = [table.multiple(m) for m in members]
        counts = counts_per_epoch[epoch]
        top = max(counts.values()) if counts else 0
        reports.append(
            EpochReport(
                epoch=epoch,
                start_height=start,
                end_height=end,
                observed_interval=(last_ts - first_ts) / delta,
                base_difficulty=table.base,
                min_multiple=float(min(multiples)),
                max_multiple=float(max(multiples)),
                mean_multiple=fmean(multiples),
                sigma_f2=variance_of_frequency(counts, members),
                top_producer_share=top / delta,
            )
        )
    return reports


def format_epoch_reports(reports: Sequence[EpochReport]) -> str:
    """Render epoch reports as an aligned text table."""
    if not reports:
        raise SimulationError("no reports to format")
    lines = [
        f"{'epoch':>6s} {'heights':>13s} {'interval':>9s} {'D_base':>10s} "
        f"{'m range':>15s} {'σ_f²':>10s} {'top share':>10s}"
    ]
    for r in reports:
        lines.append(
            f"{r.epoch:>6d} {f'{r.start_height}-{r.end_height}':>13s} "
            f"{r.observed_interval:>8.2f}s {r.base_difficulty:>10.1f} "
            f"{f'{r.min_multiple:.1f}..{r.max_multiple:.1f}':>15s} "
            f"{r.sigma_f2:>10.2e} {r.top_producer_share:>10.2%}"
        )
    return "\n".join(lines)


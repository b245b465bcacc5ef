"""Empirical checks of the paper's two propositions (§VI-A, §VI-B).

* **Prop. 1 (Convergence of History)** — every block is either adopted by
  all nodes or abandoned by all nodes within finite expected time.  We
  measure, per height, the *settlement lag*: the delay between a block's
  production and the last moment any node's main chain changed its block at
  that height.  Prop. 1 predicts the lag distribution has a finite mean and
  no growth over the run.

* **Prop. 2 (Resilience to 51 % attacks)** — the probability that a
  main-chain block gets reverted by an attacker with relative rate ``q < 1``
  vanishes as confirmations accumulate; checked by the private-chain race in
  :func:`repro.sim.attacks.private_chain_race` against the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import linear_regression

from repro.consensus.powfamily import MiningNode
from repro.errors import SimulationError


@dataclass
class SettlementTracker:
    """Observes a fleet of mining nodes and measures per-height settlement.

    Hook :meth:`snapshot` periodically (e.g. every simulated second); it
    records, for every height, the last time any node's main-chain block at
    that height differed from the eventual consensus.
    """

    nodes: list[MiningNode]
    produced_at: dict[int, float] = field(default_factory=dict)
    last_changed: dict[int, float] = field(default_factory=dict)
    _views: dict[int, dict[int, bytes]] = field(default_factory=dict)

    def snapshot(self, now: float) -> None:
        """Record every node's current main chain."""
        for node in self.nodes:
            chain = node.main_chain()
            view = self._views.setdefault(node.node_id, {})
            for block in chain[1:]:
                height = block.height
                if height not in self.produced_at:
                    self.produced_at[height] = block.header.timestamp
                if view.get(height) != block.block_id:
                    view[height] = block.block_id
                    self.last_changed[height] = now

    def settlement_lags(self, exclude_tail: int = 10) -> list[float]:
        """Per-height lag between production and final agreement.

        The last ``exclude_tail`` heights are excluded — they may still be
        settling when the run stops.
        """
        if not self.last_changed:
            raise SimulationError("no snapshots recorded")
        max_height = max(self.last_changed)
        lags = []
        for height, changed in sorted(self.last_changed.items()):
            if height > max_height - exclude_tail:
                continue
            produced = self.produced_at.get(height, changed)
            lags.append(max(0.0, changed - produced))
        return lags


def lag_growth_slope(lags: list[float]) -> float:
    """Least-squares slope of lag against height.

    Prop. 1 implies no systematic growth: the slope of settlement lag over
    block height should be ≈ 0 (agreement time doesn't degrade as history
    accumulates).
    """
    if len(lags) < 2:
        raise SimulationError("need at least two lags")
    return linear_regression(range(len(lags)), lags).slope

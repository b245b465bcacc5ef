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

from repro.chain.block import Block
from repro.consensus.powfamily import MiningNode
from repro.errors import SimulationError


@dataclass
class SettlementTracker:
    """Per-height settlement, subscribed to each node's observers: on a head
    move it times every height whose block changed in that node's view,
    walking back from the new head only as far as the view differs.
    """

    produced_at: dict[int, float] = field(default_factory=dict)
    last_changed: dict[int, float] = field(default_factory=dict)
    #: node id -> its main chain's block ids by height, as last seen.
    _views: dict[int, list[bytes]] = field(default_factory=dict)

    def __call__(self, node: MiningNode, kind: str, block: Block, reason: str | None) -> None:
        if kind not in ("chain/extended", "chain/reorg"):
            return
        head = node.state.head_block()
        view = self._views.setdefault(node.node_id, [])
        del view[head.height + 1 :]
        view.extend(b"" for _ in range(len(view), head.height + 1))
        while head.height > 0 and view[head.height] != head.block_id:
            view[head.height] = head.block_id
            self.produced_at.setdefault(head.height, head.header.timestamp)
            self.last_changed[head.height] = node.ctx.sim.now
            head = node.state.tree.get(head.parent_hash)

    def settlement_lags(self, exclude_tail: int = 10) -> list[float]:
        """Per-height lag between production and final agreement.

        The last ``exclude_tail`` heights are excluded — they may still be
        settling when the run stops.
        """
        if not self.last_changed:
            raise SimulationError("no head moves observed")
        top = max(self.last_changed) - exclude_tail
        return [
            max(0.0, changed - self.produced_at[height])
            for height, changed in sorted(self.last_changed.items())
            if height <= top
        ]


def lag_growth_slope(lags: list[float]) -> float:
    """Least-squares slope of lag against height.

    Prop. 1 implies no systematic growth: the slope of settlement lag over
    block height should be ≈ 0 (agreement time doesn't degrade as history
    accumulates).
    """
    if len(lags) < 2:
        raise SimulationError("need at least two lags")
    return linear_regression(range(len(lags)), lags).slope

"""Prop. 1 — the Convergence of History (§VI-A).

"E(ψ_Bj) < ∞ ... the block B_j will either be adopted to the main chain or
be treated as a fork and abandoned by all nodes over a certain period of
time."  Empirical check: track, per height, how long any node's view of that
height keeps changing after the block is produced.  Prop. 1 predicts a
finite, stable settlement lag with no growth over the chain.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.convergence import SettlementTracker, lag_growth_slope
from repro.consensus.powfamily import MiningNode, themis_config
from repro.core.difficulty import DifficultyParams
from repro.net.latency import LinkModel
from repro.sim.fleet import build_stack


def test_prop1_convergence_of_history(run_once):
    def experiment():
        tracker = SettlementTracker()
        link, params = LinkModel(jitter=0.01), DifficultyParams(i0=4.0, beta=4.0)
        configs = [themis_config()] * 6
        with build_stack(
            MiningNode, configs, seed=4, link=link, params=params, key_prefix="test-node"
        ) as stack:
            for node in stack.nodes:
                node.observers.append(tracker)
            stack.run_to_height(150, max_events=5_000_000)
        lags = tracker.settlement_lags(exclude_tail=10)
        return {
            "mean_lag": float(np.mean(lags)),
            "p99_lag": float(np.percentile(lags, 99)),
            "max_lag": float(np.max(lags)),
            "slope": lag_growth_slope(lags),
            "heights": len(lags),
            "i0": 4.0,
        }

    stats = run_once(experiment)
    print("\n=== Prop. 1: settlement lag of every height (finite E[ψ]) ===")
    print(
        f"heights observed: {stats['heights']} | mean lag {stats['mean_lag']:.2f} s"
        f" | p99 {stats['p99_lag']:.2f} s | max {stats['max_lag']:.2f} s"
        f" | growth slope {stats['slope']:+.4f} s/height"
    )
    # 1. Settlement is fast: on average within a couple of block intervals.
    assert stats["mean_lag"] < 3 * stats["i0"]
    # 2. Even the worst height settles (finite ψ for every block).
    assert stats["max_lag"] < 40 * stats["i0"]
    # 3. No systematic growth with chain length (stationarity of E[ψ]).
    assert abs(stats["slope"]) < 0.05

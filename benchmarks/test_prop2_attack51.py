"""Prop. 2 — Resilience to 51 % attacks (§VI-B).

"Suppose the attackers' block-producing rate is q·λ_honest, where q ∈ [0,1).
Once the block B_j was adopted to the main chain ... as τ grows, the
probability that the block B_j will be moved out of the main chain is
gradually down to 0."

Empirical check: the attacker-vs-honest race as a seeded random walk, swept
over q and confirmation depth, compared against the gambler's-ruin closed
form q^(z+1).
"""

from __future__ import annotations

import random

from benchmarks.conftest import print_series
from repro.sim.attacks import nakamoto_catch_up_probability, private_chain_race

DEPTHS = (0, 1, 2, 4, 6, 8)
QS = (0.2, 0.4, 0.6, 0.8)
TRIALS = 8000


def test_prop2_51_percent_resilience(run_once):
    def experiment():
        rng = random.Random(7)
        table = {
            q: [private_chain_race(q, z, TRIALS, rng) for z in DEPTHS] for q in QS
        }
        return table

    table = run_once(experiment)
    print_series(
        "Prop. 2: P(block reverted) vs confirmation depth (q = attacker/honest rate)",
        "depth",
        {
            "depth": list(DEPTHS),
            **{f"q={q}": table[q] for q in QS},
        },
    )
    for q in QS:
        empirical = table[q]
        analytic = [nakamoto_catch_up_probability(q, z) for z in DEPTHS]
        # 1. Monotone decrease toward 0 with depth.
        assert all(a >= b - 0.02 for a, b in zip(empirical, empirical[1:], strict=False)), q
        assert empirical[-1] < 0.25
        # 2. Matches the closed form within sampling error.
        for emp, ana in zip(empirical, analytic, strict=True):
            assert abs(emp - ana) < 0.03, (q, emp, ana)
    # 3. Deep confirmations kill even strong attackers (q = 0.8 at depth 8).
    assert table[0.8][-1] < nakamoto_catch_up_probability(0.8, 8) + 0.03
    # 4. Weaker attackers vanish much faster.
    assert table[0.2][2] < table[0.8][2]

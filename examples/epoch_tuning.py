"""Epoch-length tuning: a quick Fig. 9 sweep.

The difficulty-adjustment epoch Δ = β·n trades estimation noise (small β:
``q_i`` is a noisy sample of a node's power) against responsiveness (large
β: strong nodes over-produce for a whole long epoch before their multiple
catches up).  This example sweeps β on a small consortium and prints the
stable σ_f², reproducing the U-shape behind the paper's β ∈ [7, 11]
recommendation.

    python examples/epoch_tuning.py
"""

from __future__ import annotations

from statistics import fmean

from repro.sim.metrics import stable_value
from repro.sim.runner import ExperimentConfig, run_experiment


def main() -> None:
    n = 16
    betas = (2.0, 4.0, 8.0, 12.0, 16.0)
    seeds = (1, 2)
    height_factor = 64  # every β compared at the same height 64·n (§VII-D)
    print(f"Sweeping β = Δ/n on an n = {n} Themis consortium (Fig. 9 in miniature)\n")
    print(f"{'beta':>6s} {'Δ':>6s} {'epochs':>7s} {'stable σ_f²':>14s}")
    stable = {}
    for beta in betas:
        epochs = max(3, round(height_factor / beta))
        values = []
        for seed in seeds:
            result = run_experiment(
                ExperimentConfig(
                    algorithm="themis", n=n, seed=seed, epochs=epochs, beta=beta
                )
            )
            values.append(stable_value(result.equality))
        stable[beta] = fmean(values)
        print(
            f"{beta:>6.0f} {int(beta * n):>6d} {epochs:>7d} {stable[beta]:>14.3e}"
        )
    best = min(stable, key=stable.get)
    print(
        f"\nbest β in this sweep: {best:.0f} "
        f"(paper recommends β ∈ [7, 11] for deployment)"
    )


if __name__ == "__main__":
    main()

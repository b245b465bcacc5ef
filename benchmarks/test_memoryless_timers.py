"""Memoryless mining timers: keeping a running timer changes no statistic.

A node's solve time is exponential (Eq. 7; the proof of Prop. 1 rests on
it), so when the head moves and the node's difficulty stays the same, what
is left of its running timer is an exact draw.  ``MiningNode`` therefore
keeps that timer instead of drawing a new one, which changes the order in
which the shared generator is drawn — and so every byte of a seeded run —
but must not change the block process.  This benchmark runs the same 200
seeds with ``MiningNode`` and with ``tests/ref_mining.py``'s node, which
draws afresh on every head move, and tests at α = 0.01 that:

* main-chain block intervals come from one distribution (two-sample
  Kolmogorov–Smirnov), and
* main-chain blocks split over producers the same way (χ² homogeneity over
  the 2 × n table of per-producer counts).

Those runs cross one epoch rollover each, where every miner's difficulty
changes, so they say little about the rollover path.  A second shape makes
an epoch n blocks long (β = 1) and runs 16 of them: there the mean of a
run's per-epoch σ_f² (Fig. 4's Equality) must come from one distribution
under both nodes (Kolmogorov–Smirnov over the 200 per-run values — runs are
independent, the blocks of one run are not).  A node that kept its timer
across a difficulty change fails that test with p < 1e-4 on each of three
disjoint 200-seed ranges, while the correct node passes (p = 0.61–0.997).

Every test is computed with numpy and the standard library alone.
"""

from __future__ import annotations

import math

import numpy as np

import repro.sim.runner as runner
from repro.consensus.powfamily import MiningNode
from repro.mining.oracle import MiningOracle
from repro.sim.runner import ExperimentConfig, run_experiment

from tests.ref_mining import ReferenceMiningNode

SEEDS = range(200)
N = 8
EPOCHS = 2
#: Epochs of n blocks: a difficulty change every n-th block.
ROLLOVERS = {"beta": 1.0, "epochs": 16}
ALPHA = 0.01


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov–Smirnov statistic and asymptotic p-value
    (Stephens' small-sample correction, as in Numerical Recipes)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    gap = np.abs(
        np.searchsorted(a, grid, side="right") / len(a)
        - np.searchsorted(b, grid, side="right") / len(b)
    )
    statistic = float(gap.max())
    root = math.sqrt(len(a) * len(b) / (len(a) + len(b)))
    lam = (root + 0.12 + 0.11 / root) * statistic
    k = np.arange(1, 101)
    p = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2))
    return statistic, float(np.clip(p, 0.0, 1.0))


def chi2_sf(x: float, df: int) -> float:
    """Survival function of the χ² distribution for integer ``df``
    (closed forms of the regularized upper incomplete gamma)."""
    half = x / 2.0
    if df % 2 == 0:
        term = total = math.exp(-half)
        for k in range(1, df // 2):
            term *= half / k
            total += term
        return total
    total = math.erfc(math.sqrt(half))
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-half)
    for k in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * k + 1)
    return total


def chi2_homogeneity(counts: np.ndarray) -> tuple[float, int, float]:
    """χ² statistic, degrees of freedom and p-value for a contingency table."""
    counts = counts[:, counts.sum(axis=0) > 0]
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / counts.sum()
    statistic = float(((counts - expected) ** 2 / expected).sum())
    df = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    return statistic, df, chi2_sf(statistic, df)


def block_process(monkeypatch, node_class, **shape) -> dict:
    """Main-chain intervals, per-producer counts, each run's mean per-epoch
    σ_f² and oracle draws per block over every seed, with ``node_class``
    mining ``ExperimentConfig("themis", n=N, **shape)``."""
    monkeypatch.setattr(runner, "MiningNode", node_class)
    draws = 0
    real = MiningOracle.sample_solve_time

    def counted(oracle, hash_rate, difficulty):
        nonlocal draws
        draws += 1
        return real(oracle, hash_rate, difficulty)

    monkeypatch.setattr(MiningOracle, "sample_solve_time", counted)
    intervals, counts, equality, blocks = [], np.zeros(N, dtype=int), [], 0
    for seed in SEEDS:
        result = run_experiment(ExperimentConfig("themis", n=N, seed=seed, **shape))
        chain = result.observer.main_chain()[1:]
        intervals.append(np.diff([b.header.timestamp for b in chain]))
        index = {member: i for i, member in enumerate(result.members)}
        for block in chain:
            counts[index[block.producer]] += 1
        equality.append(float(np.mean(result.equality)))
        blocks += len(result.observer.tree) - 1
    monkeypatch.undo()
    return {
        "intervals": np.concatenate(intervals),
        "counts": counts,
        "equality": np.array(equality),
        "draws_per_block": draws / blocks,
    }


def test_kept_timers_give_the_redrawn_block_process(run_once, monkeypatch):
    def experiment():
        kept = block_process(monkeypatch, MiningNode, epochs=EPOCHS)
        redrawn = block_process(monkeypatch, ReferenceMiningNode, epochs=EPOCHS)
        return kept, redrawn

    kept, redrawn = run_once(experiment)
    d, p_ks = ks_two_sample(kept["intervals"], redrawn["intervals"])
    chi2, df, p_chi2 = chi2_homogeneity(np.vstack([kept["counts"], redrawn["counts"]]))
    print(f"\n=== memoryless timers: n = {N}, {EPOCHS} epochs, {len(SEEDS)} seeds ===")
    for name, run in (("kept", kept), ("redrawn", redrawn)):
        print(
            f"{name:>8s}: {len(run['intervals'])} intervals, mean "
            f"{run['intervals'].mean():.3f} s | producers {run['counts'].tolist()}"
            f" | oracle draws per block {run['draws_per_block']:.2f}"
        )
    print(f"KS D = {d:.4f}, p = {p_ks:.3f} | chi2 = {chi2:.2f} (df {df}), p = {p_chi2:.3f}")
    assert p_ks >= ALPHA
    assert p_chi2 >= ALPHA
    assert kept["draws_per_block"] <= 2.0 < redrawn["draws_per_block"]


def test_kept_timers_give_the_redrawn_equality_across_rollovers(run_once, monkeypatch):
    def experiment():
        kept = block_process(monkeypatch, MiningNode, **ROLLOVERS)
        redrawn = block_process(monkeypatch, ReferenceMiningNode, **ROLLOVERS)
        return kept, redrawn

    kept, redrawn = run_once(experiment)
    d, p_ks = ks_two_sample(kept["equality"], redrawn["equality"])
    print(
        f"\n=== memoryless timers: n = {N}, β = {ROLLOVERS['beta']:g}, "
        f"{ROLLOVERS['epochs']} epochs, {len(SEEDS)} seeds ==="
    )
    for name, run in (("kept", kept), ("redrawn", redrawn)):
        print(
            f"{name:>8s}: median of per-run mean σ_f² {np.median(run['equality']):.3e}"
            f" | oracle draws per block {run['draws_per_block']:.2f}"
        )
    print(f"KS over runs D = {d:.4f}, p = {p_ks:.3f}")
    assert p_ks >= ALPHA

"""Scenario specifications, one per paper figure.

A :class:`ScenarioSpec` is the unit the evaluation stack consumes: a frozen,
hashable (name, concrete config grid) pair that the CLI ``figure`` command
and the benchmark suite both hand to the
:class:`~repro.sim.engine.ExperimentEngine`.  One builder per figure
(:func:`equality_spec` … :func:`epoch_length_spec`) constructs the grid the
paper sweeps; :meth:`ScenarioSpec.configs` crosses it with seeds for
sweep-grade replication.

Scale note: the paper's testbed runs n = 100 (Fig. 4, 5, 7, 8, 9) and up to
n = 600 (Fig. 6).  These canned grids preserve every structural parameter
(Δ = β·n, the Fig. 3 power-distribution shape, §VII-A link parameters)
while defaulting to smaller n so the whole benchmark suite finishes in
minutes on one machine; every builder accepts overrides for full-scale
replication.  EXPERIMENTS.md records which scale each reported number used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Iterable, Sequence

from repro.errors import SimulationError
from repro.sim.runner import Algorithm, ExperimentConfig

#: The three PoW-family algorithms of §VII-B plus PBFT.
ALL_ALGORITHMS: tuple[Algorithm, ...] = ("themis", "themis-lite", "pow-h", "pbft")
POW_FAMILY: tuple[Algorithm, ...] = ("themis", "themis-lite", "pow-h")


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation scenario: a named config grid.

    Attributes:
        name: scenario identifier (``"fig6-scalability"``).
        grid: the concrete configs the scenario sweeps, in report order.
    """

    name: str
    grid: tuple[ExperimentConfig, ...]

    def __post_init__(self) -> None:
        if not self.grid:
            raise SimulationError(f"scenario {self.name!r} has an empty grid")

    def configs(
        self, seeds: Iterable[int] | None = None
    ) -> tuple[ExperimentConfig, ...]:
        """The grid, optionally crossed with seeds (grid-major order)."""
        if seeds is None:
            return self.grid
        seed_list = list(seeds)
        if not seed_list:
            raise SimulationError("need at least one seed")
        return tuple(
            replace(cfg, seed=seed) for cfg in self.grid for seed in seed_list
        )


# -- builders, one per figure --------------------------------------------------------


def equality_spec(
    *,
    n: int = 40,
    epochs: int = 12,
    seed: int = 0,
    algorithms: Sequence[Algorithm] = POW_FAMILY,
) -> ScenarioSpec:
    """Fig. 4 / Fig. 5: σ_f² and σ_p² against epochs (one run serves both)."""
    return ScenarioSpec(
        name="fig4-equality",
        grid=tuple(
            ExperimentConfig(
                algorithm=algorithm,
                n=n,
                seed=seed,
                epochs=epochs,
                pbft_rounds=n * 8 * 2,  # two counting epochs of committed rounds
            )
            for algorithm in algorithms
        ),
    )


def scalability_spec(
    *,
    ns: Sequence[int] = (16, 50, 100, 200),
    seed: int = 0,
    algorithms: Sequence[Algorithm] = ALL_ALGORITHMS,
) -> ScenarioSpec:
    """Fig. 6: TPS against consensus node count.

    Scalability runs use uniform power (the converged regime where every
    node invests the minimum ``H0``) so the initial ``D_base`` of Eq. 7 is
    exactly calibrated at every ``n`` and TPS differences reflect the
    network, not bootstrap transients.  A fixed chain-height window keeps
    the 600-node points tractable.
    """
    return ScenarioSpec(
        name="fig6-scalability",
        grid=tuple(
            ExperimentConfig(
                algorithm=algorithm,
                n=n,
                seed=seed,
                power="uniform",
                target_height=90,
                measure_from_height=30,
                pbft_rounds=24,
                # 6500 tx/block at I0 = 10 s puts the PoW-family plateau at
                # the paper's ~650 TPS; PBFT's leader-bandwidth bound is
                # batch-invariant.
                batch_size=6500,
            )
            for algorithm in algorithms
            for n in ns
        ),
    )


def attack_spec(
    *,
    ratios: Sequence[float] = (0.0, 0.16, 0.32),
    n: int = 40,
    seed: int = 0,
    algorithms: Sequence[Algorithm] = ALL_ALGORITHMS,
) -> ScenarioSpec:
    """Fig. 7: TPS against vulnerable-node ratio (paper: n = 100)."""
    return ScenarioSpec(
        name="fig7-attacks",
        grid=tuple(
            ExperimentConfig(
                algorithm=algorithm,
                n=n,
                seed=seed,
                epochs=4,
                pbft_rounds=60,
                vulnerable_ratio=ratio,
            )
            for algorithm in algorithms
            for ratio in ratios
        ),
    )


def fork_spec(
    *,
    n: int = 40,
    seed: int = 0,
    algorithms: Sequence[Algorithm] = POW_FAMILY,
) -> ScenarioSpec:
    """Fig. 8: fork rate / duration under identical difficulty settings."""
    return ScenarioSpec(
        name="fig8-forks",
        grid=tuple(
            ExperimentConfig(
                algorithm=algorithm,
                n=n,
                seed=seed,
                epochs=6,
                # A short block interval stresses fork handling: the relative
                # ordering PoW-H < Themis < Themis-Lite is what Fig. 8 reports.
                i0=4.0,
            )
            for algorithm in algorithms
        ),
    )


def epoch_length_spec(
    *,
    betas: Sequence[float] = (2.0, 4.0, 8.0, 12.0, 16.0),
    n: int = 20,
    seed: int = 0,
    height_factor: int = 96,
) -> ScenarioSpec:
    """Fig. 9: stable σ_f² against β = Δ/n for Themis.

    The paper compares "at the same block height" (§VII-D), which is what
    produces the U-shape: small β suffers binomial sampling noise (the
    counting window is short), while large β has completed few adjustment
    epochs by that height, so convergence is still in progress.  Every β
    therefore runs to the same total height ``height_factor·n`` and the
    stable value averages the last 5 of its own epochs.
    """
    return ScenarioSpec(
        name="fig9-epoch-length",
        grid=tuple(
            ExperimentConfig(
                algorithm="themis",
                n=n,
                seed=seed,
                epochs=max(3, round(height_factor / beta)),
                beta=beta,
            )
            for beta in betas
        ),
    )

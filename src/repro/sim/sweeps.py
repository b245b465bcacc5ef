"""Seed sweeps and aggregation.

Single simulation runs carry Poisson noise (fork losses, binomial frequency
counts); publication-grade numbers need several seeds and an uncertainty
estimate.  :func:`sweep` runs one
:class:`~repro.sim.runner.ExperimentConfig` across seeds on an
:class:`~repro.sim.engine.ExperimentEngine`, and :class:`SweepSummary`
aggregates any scalar metric with mean / median / 95 %
normal-approximation confidence interval.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from collections.abc import Callable, Iterable, Sequence

from repro.errors import SimulationError
from repro.sim.engine import ExperimentEngine
from repro.sim.runner import ExperimentConfig, RunResult

#: Extracts a scalar from a run, e.g. ``lambda r: r.tps``.
MetricFn = Callable[[RunResult], float]


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate of one scalar metric across seeds."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise SimulationError("summary needs at least one value")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.values)

    @property
    def median(self) -> float:
        return float(statistics.median(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation (0 for a single value)."""
        if self.n < 2:
            return 0.0
        return statistics.stdev(self.values)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI for the mean (95 % by default)."""
        half = z * self.std / math.sqrt(self.n) if self.n > 1 else 0.0
        return (self.mean - half, self.mean + half)

    def format(self, unit: str = "") -> str:
        lo, hi = self.confidence_interval()
        return (
            f"{self.mean:.4g}{unit} (median {self.median:.4g}, "
            f"95% CI [{lo:.4g}, {hi:.4g}], n={self.n})"
        )


def sweep(
    *,
    experiment: ExperimentConfig,
    seeds: Iterable[int],
    engine: ExperimentEngine | None = None,
) -> list[RunResult]:
    """Run one experiment configuration across seeds.

    Keyword-only by design — every call site reads as
    ``sweep(experiment=cfg, seeds=range(5), engine=engine)``.

    Args:
        experiment: the configuration, replicated once per seed.  (A
            scenario grid crossed with seeds is
            ``engine.run_many(spec.configs(seeds))``.)
        seeds: the seed values; ``range(5)`` style.
        engine: the :class:`ExperimentEngine` to run on — parallelism and
            caching are configured there, once; defaults to a serial,
            uncached engine.

    Returns:
        One :class:`RunResult` per seed, in seed order regardless of
        parallel completion order.
    """
    seed_list = list(seeds)
    if not seed_list:
        raise SimulationError("need at least one seed")
    if not isinstance(experiment, ExperimentConfig):
        raise SimulationError(
            f"experiment must be an ExperimentConfig, not {type(experiment).__name__}"
        )
    engine = engine or ExperimentEngine()
    return engine.run_many([replace(experiment, seed=seed) for seed in seed_list])


def summarize(results: Sequence[RunResult], metric: MetricFn) -> SweepSummary:
    """Aggregate a scalar metric over sweep results."""
    return SweepSummary(tuple(float(metric(r)) for r in results))

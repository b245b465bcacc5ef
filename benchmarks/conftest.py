"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure of the ICDCS 2022
Themis paper: it runs the relevant experiments, prints the same rows/series
the paper reports, and asserts the qualitative *shape* (who wins, by roughly
what factor, where crossovers fall).  Absolute numbers differ from the
paper's testbed — see EXPERIMENTS.md for the side-by-side record.

Conventions:

* every benchmark measures through ``benchmark.pedantic(..., rounds=1)`` so
  a figure's simulation runs exactly once whether or not ``--benchmark-only``
  is passed;
* all experiments go through one shared, memoizing
  :class:`~repro.sim.engine.ExperimentEngine`, so figures that share runs —
  Fig. 4 and Fig. 5 use the same convergence runs; Table I reuses
  Fig. 4/5/6 — don't pay twice.

Environment knobs (the defaults reproduce the historical serial behavior):

* ``REPRO_BENCH_JOBS`` — worker processes for batched experiments
  (:func:`batch_experiments`); single :func:`cached_experiment` calls stay
  in-process so results keep their live ``observer`` handle.
* ``REPRO_BENCH_CACHE_DIR`` — arm the on-disk result cache.  Cache-hit
  results carry no live observer; benchmarks that walk the block tree
  (§VI-C, ablations) skip under a warm cache.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

import pytest

from repro.sim.engine import ExperimentEngine
from repro.sim.runner import ExperimentConfig, RunResult


def _jobs_from_env() -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")


ENGINE = ExperimentEngine(
    jobs=_jobs_from_env(),
    cache=os.environ.get("REPRO_BENCH_CACHE_DIR") or None,
    memoize=True,
)


def cached_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run (or reuse) one experiment through the shared engine."""
    return ENGINE.run(cfg)


def batch_experiments(configs: Sequence[ExperimentConfig]) -> list[RunResult]:
    """Run a whole figure's grid in one engine batch (parallel when
    ``REPRO_BENCH_JOBS`` > 1), in deterministic config order."""
    return ENGINE.run_many(configs)


def require_observer(result: RunResult):
    """The live observer node, or a skip when the result came from disk."""
    if result.observer is None:
        pytest.skip("needs a live run (result came from the on-disk cache)")
    return result.observer


@pytest.fixture()
def run_once(benchmark):
    """Time a thunk exactly once and return its result."""

    def runner(thunk):
        return benchmark.pedantic(thunk, rounds=1, iterations=1)

    return runner


def print_series(title: str, xlabel: str, series: dict[str, list]) -> None:
    """Render a figure's data as an aligned text table."""
    print(f"\n=== {title} ===")
    names = list(series)
    xs = series[names[0]]
    width = max(len(n) for n in names[1:]) if len(names) > 1 else 8
    header = f"{xlabel:>12s}  " + "  ".join(f"{n:>{max(12, width)}s}" for n in names[1:])
    print(header)
    for i in range(len(xs)):
        row = f"{_fmt(xs[i]):>12s}  "
        row += "  ".join(
            f"{_fmt(series[n][i]):>{max(12, width)}s}" for n in names[1:]
        )
        print(row)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-2 or abs(value) >= 1e5):
            return f"{value:.3e}"
        return f"{value:.2f}"
    return str(value)

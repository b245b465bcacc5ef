"""Parallel experiment execution engine.

The paper's evaluation is embarrassingly parallel — every figure point is an
independent, deterministic :func:`~repro.sim.runner.run_experiment` call.
:class:`ExperimentEngine` runs a batch of configs with one strategy:

1. **dedup** — identical configs are computed once, and results are keyed by
   config, so the output list is bit-identical whatever the completion
   order; ``jobs=4`` and ``jobs=1`` produce byte-identical serialized
   metrics;
2. **memo**, then **cache** — an in-process dict (``memoize=True``) and a
   content-addressed :class:`~repro.sim.cache.ResultCache` turn every
   already-computed point into a lookup, with hit/miss counters surfaced in
   the :class:`EngineReport`;
3. **execute** what is left — in-process when ``jobs == 1`` or one point is
   pending (results keep their live ``observer`` handle), otherwise over one
   ``ProcessPoolExecutor``.  Results cross the process boundary as JSON (the
   :mod:`~repro.sim.reporting` round-trip), never as pickles of live
   simulators.

A point that raises is recorded as a :class:`TaskFailure` while the rest of
the batch finishes and is cached; :class:`EngineError` then lists every
failure.  A worker *death* (segfault, OOM kill, ``os._exit``) breaks the
pool without saying which point did it, so the unfinished points are run
in-process instead.  There is no per-task timeout or retry: every run is
bounded by ``ExperimentConfig.max_events`` and ``runner.MAX_SIM_TIME``, and a
run is a pure function of its config, so a retry recomputes the same failure.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import SimulationError
from repro.sim.cache import ResultCache
from repro.serde import from_json, to_json
from repro.sim.runner import ExperimentConfig, RunResult, run_experiment


class EngineError(SimulationError):
    """One or more tasks of an engine batch failed."""


@dataclass(frozen=True)
class TaskFailure:
    """One batch point whose run raised."""

    index: int  # first position of the config in the submitted batch
    config: ExperimentConfig
    error: str  # "ExceptionType: message", the same on both execution paths

    def describe(self) -> str:
        return f"task {self.index} ({_label(self.config)}): {self.error}"


@dataclass
class EngineReport:
    """What one :meth:`ExperimentEngine.run_many` batch did."""

    tasks: int = 0
    unique_tasks: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    rescued: int = 0  # points run in-process after a pool worker died
    wall_seconds: float = 0.0
    jobs: int = 1
    failures: list[TaskFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        parts = [
            f"engine: {self.tasks} tasks ({self.unique_tasks} unique), "
            f"{self.executed} executed, {self.cache_hits} cache hits, "
            f"jobs={self.jobs}, wall {self.wall_seconds:.2f}s"
        ]
        if self.memo_hits:
            parts.append(f"{self.memo_hits} memo hits")
        if self.rescued:
            parts.append(f"{self.rescued} rescued after a worker died")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        return ", ".join(parts)


def _label(cfg: ExperimentConfig) -> str:
    return f"{cfg.algorithm} n={cfg.n} seed={cfg.seed}"


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_config_payload(payload: str) -> str:
    """Worker entry point: JSON config in, JSON outcome out.

    Module-level (picklable by reference) and string-typed on both sides so
    no live simulator object — and no exception class the parent would have
    to unpickle — crosses the process boundary.  The outcome is
    ``{"result": <result record>}`` or ``{"error": "Type: message"}``.
    """
    cfg = from_json(ExperimentConfig, json.loads(payload))
    outcome: dict[str, Any]
    try:
        outcome = {"result": to_json(run_experiment(cfg))}
    except Exception as exc:
        outcome = {"error": _describe(exc)}
    return json.dumps(outcome)


@dataclass
class _Batch:
    """The mutable state of one ``run_many`` call."""

    report: EngineReport
    first_index: dict[ExperimentConfig, int]
    progress: Callable[[str], None] | None
    done: dict[ExperimentConfig, RunResult] = field(default_factory=dict)

    def finish(self, cfg: ExperimentConfig, result: RunResult, note: str = "") -> None:
        self.report.executed += 1
        self.done[cfg] = result
        self._emit(cfg, note)

    def fail(self, cfg: ExperimentConfig, error: str) -> None:
        self.report.failures.append(TaskFailure(self.first_index[cfg], cfg, error))
        self._emit(cfg, "FAILED")

    def _emit(self, cfg: ExperimentConfig, note: str) -> None:
        if self.progress is not None:
            count = len(self.done) + len(self.report.failures)
            line = f"[{count}/{self.report.unique_tasks}] {_label(cfg)} {note}"
            self.progress(line.rstrip())


class ExperimentEngine:
    """Runs experiment batches: dedup → memo → cache → execute.

    Args:
        jobs: worker process count; ``None`` or ``0`` means
            ``os.cpu_count()``.  ``jobs=1`` runs in-process (and keeps the
            live ``observer`` handle on results).
        cache: a :class:`ResultCache`, a directory for one, or ``None``
            (no disk cache).
        memoize: keep finished results in an in-process dict keyed by
            config — the benchmark suite's figure-sharing cache.
        progress: optional callback receiving one human-readable line per
            finished task (``[3/16] themis n=40 seed=2 12.1s``).
    """

    def __init__(
        self,
        *,
        jobs: int | None = 1,
        cache: ResultCache | str | Path | None = None,
        memoize: bool = False,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        if jobs is not None and jobs < 0:
            raise SimulationError("jobs must be >= 0")
        self.jobs = jobs if jobs else (os.cpu_count() or 1)
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache
        self.memoize = memoize
        self.progress = progress
        self._memo: dict[ExperimentConfig, RunResult] = {}
        self.last_report = EngineReport()

    def run(self, cfg: ExperimentConfig) -> RunResult:
        """Run (or fetch) a single experiment."""
        return self.run_many([cfg])[0]

    def run_many(self, configs: Sequence[ExperimentConfig]) -> list[RunResult]:
        """Run a batch; the i-th result always belongs to ``configs[i]``.

        Identical configs are computed once.  If any point raises,
        :class:`EngineError` is raised once the rest of the batch has
        finished (and been cached); ``last_report.failures`` names each.
        """
        started = time.perf_counter()  # repro: allow[REP001] harness wall timing
        first_index: dict[ExperimentConfig, int] = {}
        for index, cfg in enumerate(configs):
            first_index.setdefault(cfg, index)
        report = EngineReport(
            tasks=len(configs), unique_tasks=len(first_index), jobs=self.jobs
        )
        self.last_report = report
        batch = _Batch(report, first_index, self.progress)
        pending: list[ExperimentConfig] = []
        for cfg in first_index:
            if self.memoize and cfg in self._memo:
                report.memo_hits += 1
                batch.done[cfg] = self._memo[cfg]
                continue
            if self.cache is not None:
                cached = self.cache.get(cfg)
                if cached is not None:
                    report.cache_hits += 1
                    batch.done[cfg] = cached
                    continue
                report.cache_misses += 1
            pending.append(cfg)

        if self.jobs > 1 and len(pending) > 1:
            pending = self._run_pool(pending, batch)
            report.rescued = len(pending)
        for cfg in pending:
            task_started = time.perf_counter()  # repro: allow[REP001]
            try:
                result = run_experiment(cfg)
            except Exception as exc:
                batch.fail(cfg, _describe(exc))
                continue
            if self.cache is not None:
                self.cache.put(cfg, result)
            elapsed = time.perf_counter() - task_started  # repro: allow[REP001]
            batch.finish(cfg, result, f"{elapsed:.1f}s")

        if self.memoize:
            self._memo.update(batch.done)
        report.wall_seconds = time.perf_counter() - started  # repro: allow[REP001]
        if report.failures:
            detail = "; ".join(f.describe() for f in report.failures)
            raise EngineError(
                f"{len(report.failures)}/{report.tasks} experiment task(s) "
                f"failed: {detail}"
            )
        return [batch.done[cfg] for cfg in configs]

    def _run_pool(
        self, pending: list[ExperimentConfig], batch: _Batch
    ) -> list[ExperimentConfig]:
        """Run ``pending`` over one process pool; return what it left undone.

        The returned list is empty unless a worker died: the executor then
        fails every unfinished future alike, so those points go back to the
        caller, which runs them in-process.
        """
        left = dict.fromkeys(pending)
        try:
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(left))) as pool:
                futures = {
                    pool.submit(run_config_payload, json.dumps(to_json(cfg))): cfg
                    for cfg in left
                }
                for future in as_completed(futures):
                    cfg = futures[future]
                    outcome = json.loads(future.result())
                    if "error" in outcome:
                        batch.fail(cfg, outcome["error"])
                    else:
                        if self.cache is not None:
                            self.cache.put_record(cfg, outcome["result"])
                        batch.finish(cfg, from_json(RunResult, outcome["result"]))
                    del left[cfg]
        except BrokenExecutor:
            pass  # a worker died; what is still in ``left`` goes back to the caller
        return list(left)

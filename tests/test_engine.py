"""Tests for the parallel experiment engine (determinism, isolation, cache)."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.errors import SimulationError
from repro.serde import to_json
from repro.sim import engine as engine_mod
from repro.sim.cache import ResultCache
from repro.sim.engine import EngineError, ExperimentEngine
from repro.sim.runner import ExperimentConfig, run_experiment


#: Tests that inject behaviour into pool workers patch this process and rely
#: on the workers being forked from it.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers only see the monkeypatch when forked from this process",
)


def tiny(seed: int = 1, **overrides) -> ExperimentConfig:
    defaults = dict(algorithm="themis", n=8, epochs=2, seed=seed)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def serialized(results) -> list[str]:
    return [json.dumps(to_json(r), sort_keys=True) for r in results]


class TestDeterminism:
    def test_parallel_results_byte_identical_to_serial(self):
        configs = [tiny(seed=s) for s in (1, 2, 3)]
        serial = ExperimentEngine(jobs=1).run_many(configs)
        parallel = ExperimentEngine(jobs=2).run_many(configs)
        assert serialized(serial) == serialized(parallel)

    def test_results_keep_submission_order(self):
        configs = [tiny(seed=s) for s in (3, 1, 2)]
        results = ExperimentEngine(jobs=2).run_many(configs)
        assert [r.config.seed for r in results] == [3, 1, 2]


class TestDedupAndMemo:
    def test_duplicate_configs_run_once(self):
        engine = ExperimentEngine(jobs=1)
        a, b = engine.run_many([tiny(), tiny()])
        assert engine.last_report.unique_tasks == 1
        assert engine.last_report.executed == 1
        assert a is b

    def test_memoize_across_batches(self):
        engine = ExperimentEngine(jobs=1, memoize=True)
        first = engine.run(tiny())
        second = engine.run(tiny())
        assert second is first
        assert engine.last_report.memo_hits == 1
        assert engine.last_report.executed == 0

    def test_in_process_results_keep_live_observer(self):
        result = ExperimentEngine(jobs=1).run(tiny())
        assert result.observer is not None

    def test_pool_results_have_no_observer(self):
        results = ExperimentEngine(jobs=2).run_many([tiny(seed=s) for s in (1, 2)])
        assert all(r.observer is None for r in results)


class TestFailureIsolation:
    def test_serial_exception_is_attributed(self):
        engine = ExperimentEngine(jobs=1)
        bad = tiny(seed=2, max_events=10)  # trips the event-cap guard
        with pytest.raises(EngineError, match="task 1"):
            engine.run_many([tiny(seed=1), bad])
        assert engine.last_report.executed == 1
        (failure,) = engine.last_report.failures
        assert failure.config == bad
        assert failure.index == 1

    def test_failures_raise_engine_error_by_default(self):
        engine = ExperimentEngine(jobs=1)
        with pytest.raises(EngineError, match="1/1 experiment task"):
            engine.run(tiny(max_events=10))

    def test_pool_exception_fails_one_point_not_the_sweep(self, tmp_path):
        configs = [tiny(seed=1), tiny(seed=2, max_events=10), tiny(seed=3)]
        engine = ExperimentEngine(jobs=2, cache=tmp_path)
        with pytest.raises(EngineError, match="1/3 experiment task"):
            engine.run_many(configs)
        assert len(engine.last_report.failures) == 1
        # The two good points finished and were cached before the raise.
        replay = ExperimentEngine(jobs=1, cache=tmp_path)
        results = replay.run_many([configs[0], configs[2]])
        assert replay.last_report.executed == 0
        assert [r.config.seed for r in results] == [1, 3]

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_failure_text_names_the_exception_type(self, monkeypatch, jobs):
        def raising(cfg):
            if cfg.seed == 2:
                raise KeyError("x")
            return run_experiment(cfg)

        monkeypatch.setattr(engine_mod, "run_experiment", raising)
        engine = ExperimentEngine(jobs=jobs)
        with pytest.raises(EngineError):
            engine.run_many([tiny(seed=1), tiny(seed=2), tiny(seed=3)])
        (failure,) = engine.last_report.failures
        assert failure.error == "KeyError: 'x'"

    def test_simulation_errors_keep_their_type_across_the_pool(self):
        engine = ExperimentEngine(jobs=2)
        with pytest.raises(EngineError):
            engine.run_many([tiny(seed=1), tiny(seed=2, max_events=10)])
        (failure,) = engine.last_report.failures
        assert failure.error.startswith("SimulationError: ")

    @needs_fork
    def test_worker_death_finishes_the_batch_in_process(self, monkeypatch):
        parent = os.getpid()

        def dies_in_workers(cfg):
            if cfg.seed == 2 and os.getpid() != parent:
                os._exit(13)
            return run_experiment(cfg)

        monkeypatch.setattr(engine_mod, "run_experiment", dies_in_workers)
        configs = [tiny(seed=s) for s in (1, 2, 3)]
        engine = ExperimentEngine(jobs=2)
        results = engine.run_many(configs)
        assert [r.config.seed for r in results] == [1, 2, 3]
        report = engine.last_report
        assert report.ok and report.executed == 3
        assert 1 <= report.rescued <= 3
        assert "rescued after a worker died" in report.summary()
        monkeypatch.undo()
        assert serialized(results) == serialized(ExperimentEngine().run_many(configs))


class TestCacheIntegration:
    def test_replay_executes_nothing(self, tmp_path):
        configs = [tiny(seed=s) for s in (1, 2)]
        first = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        originals = first.run_many(configs)
        assert first.last_report.executed == 2

        replay = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        replayed = replay.run_many(configs)
        assert replay.last_report.executed == 0
        assert replay.last_report.cache_hits == 2
        assert serialized(replayed) == serialized(originals)

    def test_pool_runs_populate_the_cache(self, tmp_path):
        configs = [tiny(seed=s) for s in (1, 2)]
        ExperimentEngine(jobs=2, cache=ResultCache(tmp_path)).run_many(configs)
        replay = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        replay.run_many(configs)
        assert replay.last_report.cache_hits == 2

    def test_cache_accepts_directory_path(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=tmp_path)
        assert isinstance(engine.cache, ResultCache)
        engine.run(tiny())
        assert engine.cache.stats.puts == 1


class TestEngineSurface:
    def test_jobs_zero_means_all_cores(self):
        assert ExperimentEngine(jobs=0).jobs == (os.cpu_count() or 1)

    def test_negative_jobs_rejected(self):
        with pytest.raises(SimulationError):
            ExperimentEngine(jobs=-1)

    def test_progress_lines_emitted(self):
        lines: list[str] = []
        ExperimentEngine(jobs=1, progress=lines.append).run(tiny())
        assert len(lines) == 1
        assert lines[0].startswith("[1/1] themis n=8 seed=1")

    def test_report_summary_format(self):
        engine = ExperimentEngine(jobs=1)
        engine.run(tiny())
        summary = engine.last_report.summary()
        assert "engine: 1 tasks (1 unique), 1 executed" in summary
        assert "jobs=1" in summary

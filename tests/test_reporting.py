"""Tests for result serialization and text rendering."""

from __future__ import annotations

import json

import pytest

from repro.chaos.faults import CrashFault, LinkFault
from repro.chaos.schedule import FaultPlan
from repro.errors import SimulationError
from repro.serde import from_json, to_json
from repro.sim.reporting import ascii_chart, save_results, summary_line
from repro.sim.runner import ExperimentConfig, RunResult, run_experiment


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(
        ExperimentConfig(algorithm="themis", n=8, epochs=2, seed=1)
    )


@pytest.fixture(scope="module")
def pbft_result():
    return run_experiment(
        ExperimentConfig(algorithm="pbft", n=8, pbft_rounds=12, seed=1)
    )


class TestSerialization:
    def test_config_roundtrips_through_json(self):
        cfg = ExperimentConfig(algorithm="pow-h", n=12, seed=3)
        record = json.loads(json.dumps(to_json(cfg)))
        assert record["algorithm"] == "pow-h"
        assert record["n"] == 12

    def test_result_dict_carries_metrics(self, small_result):
        record = to_json(small_result)
        assert record["tps"] == small_result.tps
        assert record["equality"] == small_result.equality
        assert record["fork"]["fork_rate"] == small_result.fork.fork_rate
        assert record["network"]["messages_sent"] > 0
        json.dumps(record)  # fully JSON-safe

    def test_pbft_result_fork_is_none(self, pbft_result):
        assert to_json(pbft_result)["fork"] is None

    def test_save_and_load(self, small_result, tmp_path):
        path = save_results([small_result], tmp_path / "runs" / "out.json")
        loaded = json.loads(path.read_text())
        assert len(loaded) == 1
        assert loaded[0]["config"]["algorithm"] == "themis"


class TestRoundTrip:
    """Exact JSON round-trips (what the engine workers and cache rely on)."""

    def test_result_roundtrips_byte_identical(self, small_result):
        wire = json.dumps(to_json(small_result), sort_keys=True)
        restored = from_json(RunResult, json.loads(wire))
        assert json.dumps(to_json(restored), sort_keys=True) == wire

    def test_pbft_result_roundtrips(self, pbft_result):
        record = to_json(pbft_result)
        assert to_json(from_json(RunResult, record)) == record

    def test_restored_result_has_no_live_objects(self, small_result):
        restored = from_json(RunResult, to_json(small_result))
        assert restored.observer is None
        assert restored.pbft is None
        assert restored.tps == small_result.tps
        assert restored.equality == small_result.equality

    def test_config_roundtrips_equal(self):
        cfg = ExperimentConfig(algorithm="pow-h", n=12, seed=3, beta=6.5)
        assert from_json(ExperimentConfig, to_json(cfg)) == cfg

    def test_config_with_fault_plan_roundtrips(self):
        plan = FaultPlan(
            faults=(
                CrashFault(node=2, at=10.0, restart_at=40.0),
                LinkFault(at=5.0, until=25.0, nodes=(1, 3), loss=0.2),
            )
        )
        cfg = ExperimentConfig(algorithm="themis", n=8, seed=1, fault_plan=plan)
        record = json.loads(json.dumps(to_json(cfg)))
        assert from_json(ExperimentConfig, record) == cfg

    def test_chaos_result_roundtrips(self):
        plan = FaultPlan(faults=(CrashFault(node=3, at=20.0, restart_at=60.0),))
        result = run_experiment(
            ExperimentConfig(algorithm="themis", n=8, epochs=2, seed=1, fault_plan=plan)
        )
        wire = json.dumps(to_json(result), sort_keys=True)
        restored = from_json(RunResult, json.loads(wire))
        assert json.dumps(to_json(restored), sort_keys=True) == wire
        assert restored.config.fault_plan == plan

    def test_config_from_dict_rejects_unknown_fields(self):
        record = to_json(ExperimentConfig(algorithm="themis", n=8))
        record["warp_factor"] = 9
        with pytest.raises(SimulationError):
            from_json(ExperimentConfig, record)


class TestRendering:
    def test_ascii_chart_shape(self):
        chart = ascii_chart({"a": [1.0, 2.0, 3.0]}, width=20, height=5)
        lines = chart.splitlines()
        assert len(lines) == 7  # 5 rows + axis + legend
        assert lines[-1].startswith("* a")

    def test_ascii_chart_multi_series(self):
        chart = ascii_chart({"a": [1.0, 2.0], "b": [2.0, 1.0]}, width=10, height=4)
        assert "* a" in chart and "o b" in chart

    def test_ascii_chart_log_scale(self):
        chart = ascii_chart({"a": [1e-6, 1e-3, 1.0]}, logy=True)
        assert "(log y)" in chart

    def test_ascii_chart_validation(self):
        with pytest.raises(SimulationError):
            ascii_chart({})
        with pytest.raises(SimulationError):
            ascii_chart({"a": []})

    def test_summary_line(self, small_result, pbft_result):
        line = summary_line(small_result)
        assert "themis" in line and "tps=" in line and "fork" in line
        assert "fork n/a" in summary_line(pbft_result)

"""The whole command end to end at tiny sizes, and a failed check's exit code."""

import json
import subprocess
import sys
import time

from benchmarks.spine import catalogue, runner, store_workload
from benchmarks.spine.common import ROOT


#: A restart needs most of a sync timeout, so quick runs leave it out.
QUICK_SKIPS = "live_restart_synced_s"


def _spine(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.spine", *args],
        cwd=ROOT,
        env={"PYTHONPATH": f"{ROOT / 'src'}", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


def test_quick_set_runs_every_workload_with_all_checks_green(tmp_path):
    out = tmp_path / "set.json"
    done = _spine("run", "--seed", "5", "--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all output checks passed" in done.stdout
    result = json.loads(out.read_text())
    by_workload = {record["workload"]: record for record in result["records"]}
    assert set(by_workload) == set(catalogue.WORKLOADS)
    for workload, record in by_workload.items():
        assert record["correct"] and all(record["checks"].values()), workload
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert record["inputs_digest"] and record["host"]["nproc"]
        for spec in catalogue.END_TO_END:
            if workload in spec.on and spec.name != QUICK_SKIPS:
                assert spec.name in record["metrics"], (workload, spec.name)
    printed = [spec.name for spec in catalogue.END_TO_END if spec.name != QUICK_SKIPS]
    assert all(name in done.stdout for name in printed)
    # The same set compared with itself: no regression, equal digests.
    assert _spine("compare", str(out), str(out)).returncode == 0


def test_traced_quick_run_reports_every_per_layer_metric(tmp_path):
    out = tmp_path / "set.json"
    done = _spine(
        "run", "--seed", "5", "--quick", "--trace", "--out", str(out),
        "--workload", "sim_churn_n20", "--workload", "live_n4_open",
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    traced = [r for r in json.loads(out.read_text())["records"] if r["trace"]]
    assert len(traced) == 2
    expected = [spec.name for spec in catalogue.per_layer()]
    for record in traced:
        assert list(record["layer"]) == expected
        assert record["layer"]["bench.spans_recorded"]["value"] > 0
        assert (tmp_path / f"trace-{record['workload']}.json").exists()
    layers = {record["workload"]: record["layer"] for record in traced}
    assert layers["sim_churn_n20"]["node.sync.on_message.calls"]["value"] > 0
    assert layers["sim_churn_n20"]["net.wire.encode_message.calls"]["value"] == 0
    assert layers["live_n4_open"]["net.wire.encode_message.calls"]["value"] > 0
    assert layers["live_n4_open"]["crypto.keys.ecdsa_sign.calls"]["value"] == 0
    assert layers["live_n4_open"]["crypto.keys.ecdsa_verify.calls"]["value"] == 0


def test_a_wrong_expected_head_turns_the_exit_code_non_zero(monkeypatch, capsys):
    monkeypatch.setattr(
        store_workload._Writer, "head_id", property(lambda self: b"\x00" * 32)
    )
    code = runner.workload_main(
        ["--workload", "store_explore", "--seed", "1", "--seconds", "2", "--quick"],
        started=time.perf_counter(),
    )
    assert code == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= 1

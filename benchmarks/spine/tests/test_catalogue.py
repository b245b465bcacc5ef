"""``BENCHMARK.json`` says what the catalogue says, inside the contract's limits."""

import json
import re

from benchmarks.spine import catalogue
from benchmarks.spine.common import ROOT
from benchmarks.spine.runner import ENTRY
from benchmarks.spine.trace import SITES

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == catalogue.benchmark_manifest(manifest["run_seconds"])
    assert 1 <= manifest["run_seconds"] <= 60


def test_contract_limits_hold():
    manifest = catalogue.benchmark_manifest(15)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in manifest["end_to_end"])
    assert all(len(entry["why"]) <= 200 for entry in manifest["workloads"])
    setup = next(e for e in manifest["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_workload_and_boundary_is_wired():
    assert set(ENTRY) == set(catalogue.WORKLOADS) == set(catalogue.PRIMARY)
    assert set(SITES) == set(catalogue.BOUNDARIES)
    named = {spec.name: spec for spec in catalogue.END_TO_END}
    for workload, (metric, _) in catalogue.PRIMARY.items():
        assert workload in named[metric].on

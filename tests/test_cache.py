"""Tests for the content-addressed result cache."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.serde import to_json
from repro.sim.cache import (
    CacheStats,
    ResultCache,
    canonical_json,
    code_version,
    default_cache_dir,
)
from repro.sim.runner import ExperimentConfig, run_experiment


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(ExperimentConfig(algorithm="themis", n=8, epochs=2, seed=1))


def cfg_of(result):
    return result.config


class TestKeys:
    def test_key_is_stable(self, small_result, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        assert cache.key_for(cfg_of(small_result)) == cache.key_for(
            cfg_of(small_result)
        )

    def test_key_changes_with_config(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        a = ExperimentConfig(algorithm="themis", n=8, seed=1)
        b = ExperimentConfig(algorithm="themis", n=8, seed=2)
        assert cache.key_for(a) != cache.key_for(b)

    def test_key_changes_with_code_version(self, tmp_path):
        cfg = ExperimentConfig(algorithm="themis", n=8, seed=1)
        v1 = ResultCache(tmp_path, code_version="v1")
        v2 = ResultCache(tmp_path, code_version="v2")
        assert v1.key_for(cfg) != v2.key_for(cfg)

    def test_two_level_fanout_layout(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        cfg = ExperimentConfig(algorithm="themis", n=8, seed=1)
        path = cache.path_for(cfg)
        key = cache.key_for(cfg)
        assert path == Path(tmp_path) / key[:2] / f"{key}.json"

    def test_env_override_pins_code_version(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-by-ci")
        assert code_version() == "pinned-by-ci"

    def test_code_version_is_a_digest(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_VERSION", raising=False)
        version = code_version()
        assert len(version) == 64
        int(version, 16)  # hex digest

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestLookupAndStore:
    def test_roundtrip_and_counters(self, small_result, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        cfg = cfg_of(small_result)
        assert cache.get(cfg) is None  # cold
        cache.put(cfg, small_result)
        restored = cache.get(cfg)
        assert to_json(restored) == to_json(small_result)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1

    def test_config_change_misses(self, small_result, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        cache.put(cfg_of(small_result), small_result)
        other = ExperimentConfig(algorithm="themis", n=8, epochs=2, seed=99)
        assert cache.get(other) is None

    def test_code_version_change_invalidates(self, small_result, tmp_path):
        ResultCache(tmp_path, code_version="v1").put(
            cfg_of(small_result), small_result
        )
        assert ResultCache(tmp_path, code_version="v2").get(
            cfg_of(small_result)
        ) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, small_result, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        cfg = cfg_of(small_result)
        path = cache.put(cfg, small_result)
        path.write_text("{ not json")
        assert cache.get(cfg) is None
        assert cache.stats.invalid == 1
        assert not path.exists()

    def test_schema_mismatch_is_a_miss(self, small_result, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        cfg = cfg_of(small_result)
        path = cache.put(cfg, small_result)
        entry = json.loads(path.read_text())
        entry["schema"] = 999
        path.write_text(json.dumps(entry))
        assert cache.get(cfg) is None
        assert cache.stats.invalid == 1

    def test_writes_leave_no_temp_files(self, small_result, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        cache.put(cfg_of(small_result), small_result)
        leftovers = [p for p in Path(tmp_path).rglob("*") if ".tmp" in p.name]
        assert leftovers == []


class TestStatsAndDirs:
    def test_hit_rate_and_summary(self):
        stats = CacheStats(hits=9, misses=1)
        assert stats.hit_rate == 0.9
        assert stats.summary() == "cache: hits=9 misses=1 hit_rate=90.0%"

    def test_hit_rate_with_no_lookups(self):
        assert CacheStats().hit_rate == 0.0

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_default_cache_dir_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro-experiments"

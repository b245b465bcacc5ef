"""Content-addressed on-disk result cache.

Every experiment in this repo is a pure function of its (frozen, hashable)
:class:`~repro.sim.runner.ExperimentConfig` — the master seed drives all
randomness, and the fault plan rides inside the config.  That makes results
cacheable by *content address*: a stable SHA-256 over the canonical JSON of
``(config, code_version)`` keys a serialized :class:`RunResult` on disk, so
re-running any figure or sweep skips every already-computed point.

Key semantics:

* **config** — the full :mod:`repro.serde` record of the config,
  including the tagged fault plan; any field change (seed, n, β, a fault
  window…) yields a new key.
* **code_version** — a digest over every ``repro`` source file, computed
  once per process.  Editing the simulator invalidates the whole cache
  rather than silently replaying stale physics.  Override with the
  ``REPRO_CODE_VERSION`` environment variable (CI pins it per commit) or
  the ``code_version=`` argument.

Hits and misses are counted on the cache instance (:class:`CacheStats`) so
callers — the engine, the CLI, CI assertions — can verify that a replay
actually came from cache.  Corrupt or unreadable entries count as misses
and are rewritten, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ReproError, SimulationError
from repro.node.config import env_setting
from repro.serde import from_json, to_json
from repro.sim.runner import ExperimentConfig, RunResult

#: Bump when the cache entry layout changes; old entries become misses.
CACHE_SCHEMA = 1

_code_version_cache: str | None = None


def code_version() -> str:
    """Digest of the ``repro`` package sources (stable within one process).

    Walks every ``*.py`` under the installed package in sorted order and
    hashes paths plus contents, so any source edit — a new module, a
    deleted one, a changed constant — produces a new version and therefore
    new cache keys.  ``REPRO_CODE_VERSION`` overrides the walk entirely.
    """
    global _code_version_cache
    override = env_setting("REPRO_CODE_VERSION")
    if override:
        return override
    if _code_version_cache is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or a per-user cache directory."""
    override = env_setting("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = env_setting("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-experiments"


@dataclass
class CacheStats:
    """Observed cache traffic (the CI replay assertion reads these)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalid: int = 0  # unreadable/corrupt entries encountered (counted as misses)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        return (
            f"cache: hits={self.hits} misses={self.misses} "
            f"hit_rate={100.0 * self.hit_rate:.1f}%"
        )


class ResultCache:
    """Content-addressed store of serialized :class:`RunResult` records.

    Entries live at ``<directory>/<key[:2]>/<key>.json`` (two-level fanout
    keeps directories small at paper scale).  Writes are atomic
    (tmp + rename), so a killed run never leaves a half-written entry.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        code_version: str | None = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.code_version_override = code_version
        self.stats = CacheStats()

    # -- keys -------------------------------------------------------------------

    def _version(self) -> str:
        return self.code_version_override or code_version()

    def key_for(self, cfg: ExperimentConfig) -> str:
        """Stable content address of one experiment under current code."""
        payload = {
            "schema": CACHE_SCHEMA,
            "code_version": self._version(),
            "config": to_json(cfg),
        }
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def path_for(self, cfg: ExperimentConfig) -> Path:
        key = self.key_for(cfg)
        return self.directory / key[:2] / f"{key}.json"

    # -- lookup / store ---------------------------------------------------------

    def get(self, cfg: ExperimentConfig) -> RunResult | None:
        """Return the cached result, or None (counting a hit or a miss)."""
        path = self.path_for(cfg)
        try:
            entry = json.loads(path.read_text())
            if entry.get("schema") != CACHE_SCHEMA:
                raise SimulationError(f"cache schema {entry.get('schema')}")
            result = from_json(RunResult, entry["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, ReproError):
            # Corrupt/foreign entry, or a record the codec refuses: a miss,
            # and never trusted again.
            self.stats.invalid += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.stats.hits += 1
        return result

    def put(self, cfg: ExperimentConfig, result: RunResult) -> Path:
        """Serialize and store one result under its content address."""
        return self.put_record(cfg, to_json(result))

    def put_record(self, cfg: ExperimentConfig, record: dict[str, Any]) -> Path:
        """Store an already-serialized result record (engine worker path)."""
        path = self.path_for(cfg)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": path.stem,
            "code_version": self._version(),
            "result": record,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry, sort_keys=True))
        tmp.replace(path)
        self.stats.puts += 1
        return path

"""Fixture-based tests for the ``repro.lint`` static-analysis suite.

Every rule gets four cases: a flagged bad snippet, a clean good snippet,
a suppressed snippet, and an unused-suppression case.  Fixture trees
mirror the real layout (``src/repro/<pkg>/...``) so module-based scoping
behaves exactly as it does on the live tree.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.context import module_name_for
from repro.lint.diagnostics import PARSE_ERROR, UNUSED_SUPPRESSION
from repro.lint.engine import lint_paths
from repro.lint.registry import RULES  # filled by the engine's import, above

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_lint(tmp_path: Path, files: dict[str, str], **kwargs):
    """Write a fixture tree and lint it, returning the LintResult."""
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return lint_paths([tmp_path], root=tmp_path, **kwargs)


def codes(result) -> list[str]:
    return [d.code for d in result.diagnostics]


# -- module classification ---------------------------------------------------------


def test_module_name_for_layouts():
    assert module_name_for(Path("src/repro/net/message.py")) == "repro.net.message"
    assert module_name_for(Path("src/repro/net/__init__.py")) == "repro.net"
    assert module_name_for(Path("tests/test_lint.py")) == "tests.test_lint"
    assert module_name_for(Path("benchmarks/conftest.py")) == "benchmarks.conftest"
    assert module_name_for(Path("scratch/tool.py")) == "tool"


# -- REP001 wall clock -------------------------------------------------------------

_WALL_CLOCK_BAD = """
    import time

    def step():
        return time.time()
"""


def test_rep001_flags_wall_clock_in_sim_package(tmp_path):
    result = run_lint(tmp_path, {"src/repro/net/clocky.py": _WALL_CLOCK_BAD})
    assert codes(result) == ["REP001"]
    assert "time.time" in result.diagnostics[0].message


def test_rep001_aliased_import_and_from_import(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/chain/a.py": """
                from time import perf_counter as pc

                def measure():
                    return pc()
            """,
            "src/repro/chaos/b.py": """
                import datetime

                def stamp():
                    return datetime.datetime.now()
            """,
        },
    )
    assert codes(result) == ["REP001", "REP001"]


def test_rep001_clean_outside_sim_packages(tmp_path):
    result = run_lint(tmp_path, {"src/repro/analysis/clocky.py": _WALL_CLOCK_BAD})
    assert result.ok


def test_rep001_simulated_clock_is_clean(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/net/clean.py": """
                def step(sim):
                    return sim.now + 1.0
            """
        },
    )
    assert result.ok


def test_rep001_suppressed(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/net/waived.py": """
                import time

                def step():
                    return time.time()  # repro: allow[REP001]
            """
        },
    )
    assert result.ok


def test_rep001_unused_suppression_reported(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/net/stale.py": """
                def step(sim):
                    return sim.now  # repro: allow[REP001]
            """
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]
    assert "unused suppression" in result.diagnostics[0].message


# -- REP002 unseeded RNG -----------------------------------------------------------


def test_rep002_flags_stdlib_random(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/mining/rngy.py": """
                import random

                def pick(items):
                    return random.choice(items)
            """
        },
    )
    assert codes(result) == ["REP002"]


def test_rep002_flags_numpy_legacy_api(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/sim/legacy.py": """
                import numpy as np

                def noise():
                    np.random.seed(0)
                    return np.random.rand(3)
            """
        },
    )
    assert codes(result) == ["REP002", "REP002"]


def test_rep002_seeded_generators_are_clean(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/sim/seeded.py": """
                import random

                import numpy as np

                def make(seed: int):
                    return np.random.default_rng(seed), random.Random(seed)
            """
        },
    )
    assert result.ok


def test_rep002_suppressed_and_unused(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/sim/waived.py": """
                import random

                def pick(items):
                    return random.choice(items)  # repro: allow[REP002]
            """,
            "src/repro/sim/stale.py": """
                def pick(items):
                    return items[0]  # repro: allow[REP002]
            """,
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]


# -- REP003 unordered iteration ----------------------------------------------------


def test_rep003_flags_set_iteration_in_hash_context(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/chain/hashy.py": """
                def hash_members(members: set[bytes]) -> bytes:
                    out = b""
                    for member in members:
                        out += member
                    return out
            """
        },
    )
    assert codes(result) == ["REP003"]
    assert "set-typed variable" in result.diagnostics[0].message


def test_rep003_flags_dict_view_in_serde_context(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/sim/serde.py": """
                def thing_to_dict(counts: dict) -> dict:
                    return {k: v for k, v in counts.items()}
            """
        },
    )
    assert codes(result) == ["REP003"]
    assert ".items()" in result.diagnostics[0].message


def test_rep003_sorted_iteration_is_clean(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/chain/sortedhash.py": """
                def hash_members(members: set[bytes]) -> bytes:
                    out = b""
                    for member in sorted(members):
                        out += member
                    return out

                def thing_to_dict(counts: dict) -> dict:
                    return {k: v for k, v in sorted(counts.items())}
            """
        },
    )
    assert result.ok


def test_rep003_only_applies_in_context_functions(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/chain/plain.py": """
                def count_all(counts: dict) -> int:
                    return sum(v for v in counts.values())
            """
        },
    )
    assert result.ok


def test_rep003_suppressed_and_unused(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/chain/waived.py": """
                def serialize(seen: set[int]) -> str:
                    return ",".join(str(s) for s in seen)  # repro: allow[REP003]
            """,
            "src/repro/chain/stale.py": """
                def serialize(seen: list[int]) -> str:
                    return ",".join(str(s) for s in seen)  # repro: allow[REP003]
            """,
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]


# -- REP006 process boundary -------------------------------------------------------


def test_rep006_flags_pickle_import(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/sim/boundary.py": """
                import pickle

                def ship(obj) -> bytes:
                    return pickle.dumps(obj)
            """
        },
    )
    assert codes(result) == ["REP006"]
    assert "pickle" in result.diagnostics[0].message


def test_rep006_flags_environ_outside_gateway(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/sim/knobs.py": """
                import os

                def jobs() -> int:
                    return int(os.environ.get("JOBS", "1"))
            """,
            "src/repro/chain/getenv.py": """
                from os import getenv

                def flag() -> str | None:
                    return getenv("FLAG")
            """,
        },
    )
    assert codes(result) == ["REP006", "REP006"]


def test_rep006_gateway_modules_are_clean(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/node/config.py": """
                import os

                def env_setting(name: str):
                    return os.environ.get(name)
            """,
            "benchmarks/conftest.py": """
                import os

                JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
            """,
        },
    )
    assert result.ok


def test_rep006_storage_package_environ_is_flagged(tmp_path):
    # The durable-storage tier is inside lint scope: filesystem locations
    # and tuning must come through the node.config gateway, not raw env.
    result = run_lint(
        tmp_path,
        {
            "src/repro/storage/paths.py": """
                import os

                def default_data_dir() -> str:
                    return os.environ.get("REPRO_DATA_DIR", "/tmp/repro")
            """,
            "src/repro/explorer/knobs.py": """
                from os import getenv

                def cache_size() -> int:
                    return int(getenv("EXPLORER_CACHE", "256"))
            """,
        },
    )
    assert codes(result) == ["REP006", "REP006"]


def test_rep006_storage_via_gateway_is_clean(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/node/config.py": """
                import os

                def env_setting(name: str, default: str | None = None):
                    return os.environ.get(name, default)
            """,
            "src/repro/storage/paths.py": """
                from repro.node.config import env_setting

                def default_data_dir() -> str:
                    return env_setting("REPRO_DATA_DIR", "/tmp/repro")
            """,
        },
    )
    assert result.ok


def test_rep006_storage_pickle_flagged_sqlite_allowed(tmp_path):
    # sqlite3 is the sanctioned durable format; pickle snapshots are not.
    result = run_lint(
        tmp_path,
        {
            "src/repro/storage/snapshots.py": """
                import pickle

                def snapshot(tree) -> bytes:
                    return pickle.dumps(tree)
            """,
            "src/repro/storage/database.py": """
                import sqlite3

                def open_db(path: str):
                    return sqlite3.connect(path)
            """,
        },
    )
    assert codes(result) == ["REP006"]
    assert "pickle" in result.diagnostics[0].message


def test_rep006_storage_waiver_honored(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/storage/legacy.py": """
                import os

                def migration_root() -> str:
                    return os.environ["MIGRATE"]  # repro: allow[REP006]
            """,
        },
    )
    assert result.ok


def test_rep006_suppressed_and_unused(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/sim/waived.py": """
                import os

                def jobs() -> int:
                    return int(os.environ.get("JOBS", "1"))  # repro: allow[REP006]
            """,
            "src/repro/sim/stale.py": """
                def jobs() -> int:
                    return 1  # repro: allow[REP006]
            """,
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]


# -- suppression machinery ---------------------------------------------------------


def test_multiple_codes_in_one_directive(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/net/multi.py": """
                import time, os

                def f():
                    return time.time(), os.environ.get("X")  # repro: allow[REP001,REP006]
            """
        },
    )
    assert result.ok


def test_unknown_rule_code_in_suppression(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/net/odd.py": """
                x = 1  # repro: allow[REP123]
            """
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]
    assert "does not exist" in result.diagnostics[0].message


def test_malformed_suppression_code(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/net/odd.py": """
                x = 1  # repro: allow[bogus]
            """
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]
    assert "unknown rule code" in result.diagnostics[0].message


def test_no_unused_report_when_disabled(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/net/stale.py": """
                def step(sim):
                    return sim.now  # repro: allow[REP001]
            """
        },
        report_unused=False,
    )
    assert result.ok


def test_suppression_for_unselected_rule_is_not_unused(tmp_path):
    # Running only REP006 must not report a REP001 waiver as stale.
    result = run_lint(
        tmp_path,
        {
            "src/repro/net/waived.py": """
                import time

                def step():
                    return time.time()  # repro: allow[REP001]
            """
        },
        select=["REP006"],
    )
    assert result.ok


# -- engine / meta -----------------------------------------------------------------


def test_parse_error_reported_not_raised(tmp_path):
    result = run_lint(tmp_path, {"src/repro/net/broken.py": "def f(:\n    pass\n"})
    assert codes(result) == [PARSE_ERROR]


def test_select_and_ignore_filter_rules(tmp_path):
    files = {
        "src/repro/net/both.py": """
            import time, pickle

            def f():
                return time.time()
        """
    }
    only_clock = run_lint(tmp_path / "a", files, select=["REP001"])
    assert codes(only_clock) == ["REP001"]
    no_clock = run_lint(tmp_path / "b", files, ignore=["REP001"])
    assert codes(no_clock) == ["REP006"]


def test_unknown_select_code_raises(tmp_path):
    with pytest.raises(ValueError, match="REP999"):
        run_lint(tmp_path, {"src/repro/net/x.py": "x = 1\n"}, select=["REP999"])


def test_output_is_deterministic(tmp_path):
    files = {
        "src/repro/net/a.py": _WALL_CLOCK_BAD,
        "src/repro/sim/b.py": """
            import pickle
            import random

            def f(items):
                return random.choice(items)
        """,
    }
    first = run_lint(tmp_path, files)
    second = lint_paths([tmp_path], root=tmp_path)
    assert [d.text() for d in first.diagnostics] == [
        d.text() for d in second.diagnostics
    ]
    # Sorted by (path, line, col): pickle import on line 1 precedes random.
    assert codes(first) == ["REP001", "REP006", "REP002"]


# -- REP010 determinism taint ------------------------------------------------------

_TAINT_HELPER = """
    import time

    def stamp():
        return time.time()
"""

_TAINT_SINK = """
    from repro.util.helpers import stamp

    def block_to_bytes(block):
        return str(stamp()).encode()
"""


def test_rep010_flags_transitive_wall_clock(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/util/helpers.py": _TAINT_HELPER,
            "src/repro/chain/codec.py": _TAINT_SINK,
        },
    )
    assert codes(result) == ["REP010"]
    message = result.diagnostics[0].message
    assert "block_to_bytes() -> stamp()" in message
    assert "time.time" in message
    # REP001 stays silent: repro.util is outside the sim packages.
    assert "REP001" not in codes(result)


def test_rep010_clean_when_helper_is_deterministic(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/util/helpers.py": """
                def stamp():
                    return 0.0
            """,
            "src/repro/chain/codec.py": _TAINT_SINK,
        },
    )
    assert result.ok


def test_rep010_source_waiver_sanitizes(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/util/helpers.py": """
                import time

                def stamp():
                    return time.time()  # repro: allow[REP010]
            """,
            "src/repro/chain/codec.py": _TAINT_SINK,
        },
    )
    # The waived source does not propagate, and the load-bearing waiver
    # is counted as used (no REP000).
    assert result.ok


def test_rep010_unused_suppression_reported(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/util/helpers.py": """
                def stamp():
                    return 0.0  # repro: allow[REP010]
            """,
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]


# -- REP020 blocking in async ------------------------------------------------------


def test_rep020_flags_blocking_sleep_in_async(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/worker.py": """
                import time

                async def pump():
                    time.sleep(1.0)
            """
        },
    )
    assert codes(result) == ["REP020"]
    assert "time.sleep" in result.diagnostics[0].message


def test_rep020_async_sleep_and_nested_def_are_clean(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/worker.py": """
                import asyncio
                import time

                async def pump():
                    await asyncio.sleep(1.0)

                    def executor_target():
                        time.sleep(1.0)

                    return executor_target
            """
        },
    )
    assert result.ok


def test_rep020_suppressed(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/worker.py": """
                import time

                async def pump():
                    time.sleep(1.0)  # repro: allow[REP020]
            """
        },
    )
    assert result.ok


def test_rep020_unused_suppression_reported(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/worker.py": """
                async def pump():
                    return 1  # repro: allow[REP020]
            """
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]


# -- REP021 unawaited coroutine ----------------------------------------------------


def test_rep021_flags_discarded_coroutine(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/session.py": """
                async def handshake():
                    return True

                async def boot():
                    handshake()
            """
        },
    )
    assert codes(result) == ["REP021"]
    assert "handshake" in result.diagnostics[0].message


def test_rep021_awaited_and_scheduled_are_clean(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/session.py": """
                import asyncio

                async def handshake():
                    return True

                async def boot(tasks):
                    await handshake()
                    tasks.append(asyncio.create_task(handshake()))
            """
        },
    )
    assert result.ok


def test_rep021_cross_module_detection(tmp_path):
    # The async def lives in another file: only the project function
    # table can know the discarded call builds a coroutine.
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/proto.py": """
                async def handshake():
                    return True
            """,
            "src/repro/live/session.py": """
                from repro.live.proto import handshake

                async def boot():
                    handshake()
            """,
        },
    )
    assert codes(result) == ["REP021"]


def test_rep021_suppressed(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/session.py": """
                async def handshake():
                    return True

                async def boot():
                    handshake()  # repro: allow[REP021]
            """
        },
    )
    assert result.ok


def test_rep021_unused_suppression_reported(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/session.py": """
                async def boot():
                    return 1  # repro: allow[REP021]
            """
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]


# -- REP022 dropped task -----------------------------------------------------------


def test_rep022_flags_dropped_create_task(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/spawn.py": """
                import asyncio

                async def job():
                    return 1

                async def boot():
                    asyncio.create_task(job())
            """
        },
    )
    assert codes(result) == ["REP022"]
    assert "weak" in result.diagnostics[0].message


def test_rep022_retained_handle_is_clean(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/spawn.py": """
                import asyncio

                async def job():
                    return 1

                async def boot(tasks):
                    tasks.append(asyncio.create_task(job()))
            """
        },
    )
    assert result.ok


def test_rep022_suppressed(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/spawn.py": """
                import asyncio

                async def job():
                    return 1

                async def boot():
                    asyncio.create_task(job())  # repro: allow[REP022]
            """
        },
    )
    assert result.ok


def test_rep022_unused_suppression_reported(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/spawn.py": """
                async def boot():
                    return 1  # repro: allow[REP022]
            """
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]


# -- REP023 unlocked shared state --------------------------------------------------


def test_rep023_flags_unlocked_attribute_write(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/state.py": """
                import threading

                class Worker(threading.Thread):
                    def run(self):
                        self.progress = 1

                    def reset(self):
                        self.progress = 0
            """
        },
    )
    assert codes(result) == ["REP023"]
    assert "self.progress" in result.diagnostics[0].message


def test_rep023_flags_unlocked_global_write(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/state.py": """
                import threading

                counter = 0

                def tick():
                    global counter
                    counter += 1

                def main():
                    global counter
                    counter = 0
                    threading.Thread(target=tick).start()
            """
        },
    )
    assert codes(result) == ["REP023"]
    assert "'counter'" in result.diagnostics[0].message


def test_rep023_locked_write_and_init_are_clean(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/state.py": """
                import threading

                class Worker(threading.Thread):
                    def __init__(self):
                        super().__init__()
                        self.progress = 0
                        self.state_lock = threading.Lock()

                    def run(self):
                        with self.state_lock:
                            self.progress = 1

                    def reset(self):
                        self.progress = 0
            """
        },
    )
    assert result.ok


def test_rep023_suppressed(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/state.py": """
                import threading

                class Worker(threading.Thread):
                    def run(self):
                        self.progress = 1  # repro: allow[REP023]

                    def reset(self):
                        self.progress = 0
            """
        },
    )
    assert result.ok


def test_rep023_unused_suppression_reported(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/state.py": """
                def quiet():
                    return 1  # repro: allow[REP023]
            """
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]


# -- REP024 sqlite across threads --------------------------------------------------


def test_rep024_flags_unlocked_cross_thread_connection(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/explorer/srv.py": """
                import sqlite3
                from http.server import BaseHTTPRequestHandler

                conn = sqlite3.connect("chain.db")

                class Handler(BaseHTTPRequestHandler):
                    def do_GET(self):
                        conn.execute("select 1")
            """
        },
    )
    assert codes(result) == ["REP024"]
    assert "'conn'" in result.diagnostics[0].message


def test_rep024_flags_unlocked_connection_in_stream_handler(tmp_path):
    """A ``socketserver`` handler's ``handle()`` runs on the server's
    per-connection thread, like ``do_GET`` on ``http.server``'s."""
    result = run_lint(
        tmp_path,
        {
            "src/repro/explorer/srv.py": """
                import sqlite3
                from socketserver import StreamRequestHandler

                conn = sqlite3.connect("chain.db")

                class Handler(StreamRequestHandler):
                    def handle(self):
                        conn.execute("select 1")
            """
        },
    )
    assert codes(result) == ["REP024"]
    assert "handle()" in result.diagnostics[0].message


def test_rep024_locked_or_thread_local_connection_is_clean(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/explorer/srv.py": """
                import sqlite3
                import threading
                from http.server import BaseHTTPRequestHandler

                conn = sqlite3.connect("chain.db")
                db_lock = threading.Lock()

                class Handler(BaseHTTPRequestHandler):
                    def do_GET(self):
                        with db_lock:
                            conn.execute("select 1")

                    def do_POST(self):
                        local = sqlite3.connect("chain.db")
                        local.execute("select 1")
            """
        },
    )
    assert result.ok


def test_rep024_suppressed(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/explorer/srv.py": """
                import sqlite3
                from http.server import BaseHTTPRequestHandler

                conn = sqlite3.connect("chain.db")

                class Handler(BaseHTTPRequestHandler):
                    def do_GET(self):
                        conn.execute("select 1")  # repro: allow[REP024]
            """
        },
    )
    assert result.ok


def test_rep024_unused_suppression_reported(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/explorer/srv.py": """
                def quiet():
                    return 1  # repro: allow[REP024]
            """
        },
    )
    assert codes(result) == [UNUSED_SUPPRESSION]


def test_every_rule_has_fixture_coverage():
    # The four-case contract above must cover the full registry: adding a
    # rule without fixtures should fail here, not silently ship.
    assert set(RULES) == {
        "REP001",
        "REP002",
        "REP003",
        "REP006",
        "REP010",
        "REP020",
        "REP021",
        "REP022",
        "REP023",
        "REP024",
    }


def test_rules_do_not_touch_ast():
    # The design as an executable property: rules are predicates over the
    # extractor's fact records, so only the extractor may import ``ast``.
    import ast
    import repro.lint

    importers = set()
    for path in Path(repro.lint.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            if "ast" in modules:
                importers.add(path.name)
    assert importers == {"extract.py"}
    rule_modules = {cls.__module__.rsplit(".", 1)[1] + ".py" for cls in RULES.values()}
    assert rule_modules == {"rules.py", "asyncrules.py"}


# -- CLI ---------------------------------------------------------------------------


def _write_bad_tree(tmp_path: Path) -> Path:
    target = tmp_path / "src" / "repro" / "net"
    target.mkdir(parents=True)
    (target / "bad.py").write_text(
        "import time\n\n\ndef f():\n    return time.time()\n"
    )
    return tmp_path


def test_cli_text_format_and_exit_code(tmp_path, capsys, monkeypatch):
    _write_bad_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["src"]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out and "found 1 issue(s)" in out


def test_cli_json_format(tmp_path, capsys, monkeypatch):
    _write_bad_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["src", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["counts_by_code"] == {"REP001": 1}
    assert payload["findings"][0]["code"] == "REP001"


def test_cli_github_format(tmp_path, capsys, monkeypatch):
    _write_bad_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["src", "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=REP001" in out


def test_cli_clean_tree_exits_zero(tmp_path, capsys, monkeypatch):
    target = tmp_path / "src" / "repro" / "net"
    target.mkdir(parents=True)
    (target / "fine.py").write_text("def f(sim):\n    return sim.now\n")
    monkeypatch.chdir(tmp_path)
    assert lint_main(["src"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_bad_rule_code_is_usage_error(tmp_path, capsys, monkeypatch):
    _write_bad_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["src", "--select", "NOPE"]) == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_cli_select_filters(tmp_path, capsys, monkeypatch):
    _write_bad_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert lint_main(["src", "--select", "REP006"]) == 0


# -- the live tree -----------------------------------------------------------------


def test_repo_tree_is_clean():
    """The shipped tree must stay lint-clean (the CI gate, as a test)."""
    result = lint_paths(
        [REPO_ROOT / d for d in ("src", "tests", "benchmarks", "examples")],
        root=REPO_ROOT,
    )
    assert result.ok, "\n".join(d.text() for d in result.diagnostics)

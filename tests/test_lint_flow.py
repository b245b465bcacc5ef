"""Flow-level tests for the ``repro.lint`` suite.

Where ``test_lint.py`` exercises each rule against minimal fixtures,
this module tests the machinery the rules ride on: interprocedural
taint traces (and their relation to the direct rules), facts for defs
that sit under module-level compound statements, imports below their
uses, files sharing a module name, parse-error recovery
mid-project, the one-parse-per-file contract, and the CLI exit-code
contract across every format.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint.engine import lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.diagnostics import PARSE_ERROR

_TAINT_LEAF = """
    import time

    def host_seconds():
        return time.time()
"""

_TAINT_MID = """
    from repro.util.hostclock import host_seconds

    def annotate(record):
        record["at"] = host_seconds()
        return record
"""

_TAINT_SINK = """
    from repro.util.annotate import annotate

    def result_to_dict(result):
        return annotate({"height": result.height})
"""


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))


def run_lint(tmp_path: Path, files: dict[str, str], **kwargs):
    write_tree(tmp_path, files)
    return lint_paths([tmp_path], root=tmp_path, **kwargs)


def codes(result) -> list[str]:
    return [d.code for d in result.diagnostics]


# -- REP010 taint traces -----------------------------------------------------------


def test_taint_two_hop_leak_rep001_misses(tmp_path):
    """The ISSUE's acceptance case: a transitive time.time() leak through
    two utility modules that every per-file rule waves through."""
    result = run_lint(
        tmp_path,
        {
            "src/repro/util/hostclock.py": _TAINT_LEAF,
            "src/repro/util/annotate.py": _TAINT_MID,
            "src/repro/sim/reporting.py": _TAINT_SINK,
        },
    )
    assert codes(result) == ["REP010"]
    message = result.diagnostics[0].message
    # The full call chain is rendered, sink first.
    assert "result_to_dict() -> annotate() -> host_seconds()" in message
    # The diagnostic names the source and where it physically sits.
    assert "wall-clock" in message
    assert "hostclock.py" in message
    # The finding anchors at the sink's call site, in the sink's file.
    assert result.diagnostics[0].path.endswith("reporting.py")


def test_taint_reports_shortest_path(tmp_path):
    # Two routes to the source; the diagnostic takes the direct one.
    result = run_lint(
        tmp_path,
        {
            "src/repro/util/hostclock.py": _TAINT_LEAF,
            "src/repro/util/annotate.py": _TAINT_MID,
            "src/repro/sim/reporting.py": """
                from repro.util.annotate import annotate
                from repro.util.hostclock import host_seconds

                def result_to_dict(result):
                    direct = host_seconds()
                    return annotate({"height": result.height, "t": direct})
            """,
        },
    )
    assert codes(result) == ["REP010"]
    assert (
        "result_to_dict() -> host_seconds()" in result.diagnostics[0].message
    )


def test_taint_respects_max_depth(tmp_path):
    files = {"src/repro/util/h0.py": _TAINT_LEAF.replace("host_seconds", "f0")}
    for i in range(1, 4):
        files[f"src/repro/util/h{i}.py"] = f"""
            from repro.util.h{i - 1} import f{i - 1}

            def f{i}():
                return f{i - 1}()
        """
    files["src/repro/sim/reporting.py"] = """
        from repro.util.h3 import f3

        def result_to_dict(result):
            return f3()
    """
    from dataclasses import replace

    from repro.lint.config import DEFAULT_CONFIG

    deep = run_lint(tmp_path / "deep", files)
    assert codes(deep) == ["REP010"]
    shallow = run_lint(
        tmp_path / "shallow",
        files,
        config=replace(DEFAULT_CONFIG, taint_max_depth=2),
    )
    assert shallow.ok


# -- one source fact, two rules ----------------------------------------------------

_SIM_HELPER = """
    import time

    def stamp():
        return time.time(){waiver}
"""

_SIM_SINK = """
    from repro.chain.clock import stamp

    def block_to_bytes(block):
        return str(stamp()).encode()
"""


def test_direct_and_transitive_report_the_same_source_fact(tmp_path):
    """One time.time() in a sim-package helper called by a sink: REP001
    reports it where it sits, REP010 where the sink reaches it."""
    result = run_lint(
        tmp_path,
        {
            "src/repro/chain/clock.py": _SIM_HELPER.format(waiver=""),
            "src/repro/chain/codec.py": _SIM_SINK,
        },
    )
    assert [(d.code, d.path, d.line) for d in result.diagnostics] == [
        ("REP001", "src/repro/chain/clock.py", 5),
        ("REP010", "src/repro/chain/codec.py", 5),
    ]
    assert "src/repro/chain/clock.py:5" in result.diagnostics[1].message


def test_one_waiver_on_the_source_line_silences_both(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/chain/clock.py": _SIM_HELPER.format(
                waiver="  # repro: allow[REP001]"
            ),
            "src/repro/chain/codec.py": _SIM_SINK,
        },
    )
    # REP001 is waived, the waived source does not propagate to REP010,
    # and the single directive is load-bearing (no REP000).
    assert result.ok


# -- defs under module-level compound statements -----------------------------------

_GUARDED_HELPER = """
    import time

    try:
        import fastclock
    except ImportError:
        def stamp():
            return {body}
"""

_GUARDED_SINK = """
    from repro.util.helper import stamp

    def serialize_block(block):
        return str(stamp()).encode()
"""


def test_def_under_module_level_try_is_a_taint_source(tmp_path):
    """A function defined in an ``except ImportError:`` fallback is a
    function like any other: its wall-clock read reaches the sink."""
    result = run_lint(
        tmp_path,
        {
            "src/repro/util/helper.py": _GUARDED_HELPER.format(body="time.time()"),
            "src/repro/net/emit.py": _GUARDED_SINK,
        },
    )
    assert codes(result) == ["REP010"]
    assert "serialize_block() -> stamp()" in result.diagnostics[0].message


def test_def_under_module_level_try_clean_when_deterministic(tmp_path):
    result = run_lint(
        tmp_path,
        {
            "src/repro/util/helper.py": _GUARDED_HELPER.format(body="0.0"),
            "src/repro/net/emit.py": _GUARDED_SINK,
        },
    )
    assert result.ok


def test_guarded_defs_are_visible_to_async_and_message_rules(tmp_path):
    """A def under a module-level ``if`` or ``with`` is a function fact:
    REP021 finds the coroutine, REP010 the taint source inside it."""
    result = run_lint(
        tmp_path,
        {
            "src/repro/live/proto.py": """
                import sys

                if sys.platform != "win32":
                    async def handshake():
                        return True
            """,
            "src/repro/live/session.py": """
                from repro.live.proto import handshake

                async def boot():
                    handshake()
            """,
            "src/repro/util/helper.py": """
                import time

                with open("/dev/null"):
                    def stamp():
                        return time.time()
            """,
            "src/repro/net/emit.py": _GUARDED_SINK,
        },
    )
    assert sorted(codes(result)) == ["REP010", "REP021"]


# -- imports below their uses ------------------------------------------------------

_LATE_IMPORTS = """
    def stamp_to_bytes():
        return str({direct}).encode()

    def now():
        return {aliased}

    def block_to_bytes(block):
        return str(now()).encode()

    import time
    from time import time as clock
"""


def test_hazard_used_above_its_import_is_still_a_source(tmp_path):
    """Bindings are whole-file: a bottom-of-module import (the usual
    circular-import workaround) names the hazard for the defs above it."""
    result = run_lint(
        tmp_path,
        {
            "src/repro/chain/late.py": _LATE_IMPORTS.format(
                direct="time.time()", aliased="clock()"
            )
        },
    )
    assert [(d.code, d.line) for d in result.diagnostics] == [
        ("REP001", 3),
        ("REP001", 6),
        ("REP010", 9),
    ]
    assert "block_to_bytes() -> now()" in result.diagnostics[2].message


def test_late_imports_clean_when_unused(tmp_path):
    result = run_lint(
        tmp_path,
        {"src/repro/chain/late.py": _LATE_IMPORTS.format(direct="0.0", aliased="0.0")},
    )
    assert result.ok


def test_late_environ_and_sqlite_bindings_resolve(tmp_path):
    """The same holds for name chains (REP006) and for a connection opened
    below the thread entry that uses it (REP024)."""
    result = run_lint(
        tmp_path,
        {
            "src/repro/explorer/late.py": """
                from http.server import BaseHTTPRequestHandler

                class Handler(BaseHTTPRequestHandler):
                    def do_GET(self):
                        return conn.execute(env["QUERY"])

                conn = sq.connect("chain.db", check_same_thread=False)
                import sqlite3 as sq
                from os import environ as env
            """
        },
    )
    assert sorted((d.code, d.line) for d in result.diagnostics) == [
        ("REP006", 6),
        ("REP024", 6),
    ]


# -- files sharing a module name ---------------------------------------------------


def test_files_sharing_a_module_name_are_both_checked(tmp_path):
    """``tests/test_x.py`` and ``benchmarks/spine/tests/test_x.py`` are
    both ``tests.test_x``; neither hides the other from the rules."""
    bad = "import random\n\ndef draw():\n    return random.random()\n"
    for first, second in (("", bad), (bad, "")):
        result = run_lint(
            tmp_path,
            {
                "benchmarks/spine/tests/test_x.py": first,
                "tests/test_x.py": second,
            },
        )
        assert result.files_checked == 2
        assert codes(result) == ["REP002"]


# -- REP900 recovery ---------------------------------------------------------------


def test_parse_error_does_not_stop_project_rules(tmp_path):
    """One unparseable file yields REP900; the rest of the project —
    including cross-module conclusions — is still analyzed."""
    result = run_lint(
        tmp_path,
        {
            "src/repro/util/broken.py": "def f(:\n",
            "src/repro/util/hostclock.py": _TAINT_LEAF,
            "src/repro/util/annotate.py": _TAINT_MID,
            "src/repro/sim/reporting.py": _TAINT_SINK,
        },
    )
    assert sorted(codes(result)) == ["REP010", PARSE_ERROR]


# -- one pass ----------------------------------------------------------------------


def test_each_file_parsed_once(tmp_path, monkeypatch):
    import ast

    write_tree(
        tmp_path,
        {
            "src/repro/util/hostclock.py": _TAINT_LEAF,
            "src/repro/util/annotate.py": _TAINT_MID,
            "src/repro/sim/reporting.py": _TAINT_SINK,
        },
    )
    real_parse = ast.parse
    parsed: list[str] = []

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(Path(filename).name)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    result = lint_paths([tmp_path], root=tmp_path)
    assert len(result.rules_run) == 10 and codes(result) == ["REP010"]
    assert sorted(parsed) == ["annotate.py", "hostclock.py", "reporting.py"]


# -- exit-code contract ------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["text", "json", "github"])
def test_exit_codes_agree_across_formats(tmp_path, capsys, monkeypatch, fmt):
    write_tree(
        tmp_path,
        {
            "bad/src/repro/net/bad.py": (
                "import time\n\n\ndef f():\n    return time.time()\n"
            ),
            "clean/src/repro/net/fine.py": "def f(sim):\n    return sim.now\n",
        },
    )
    monkeypatch.chdir(tmp_path / "bad")
    assert lint_main(["src", "--format", fmt, "--statistics"]) == 1
    capsys.readouterr()
    monkeypatch.chdir(tmp_path / "clean")
    assert lint_main(["src", "--format", fmt, "--statistics"]) == 0
    capsys.readouterr()

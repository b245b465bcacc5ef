"""Module naming: how a source path maps to the dotted name rules scope on."""

from __future__ import annotations

from pathlib import Path


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name for a source file.

    ``src/repro/net/message.py`` → ``repro.net.message``;
    ``tests/test_lint.py`` → ``tests.test_lint``;
    ``benchmarks/conftest.py`` → ``benchmarks.conftest``.  Rules use the
    module name (never the raw path) for scoping, so fixture trees that
    mirror the layout are classified identically to the live tree.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        return ""
    # A `repro` package rooted under `src/` wins; otherwise the last
    # occurrence of `repro` (installed layouts).
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro" and index > 0 and parts[index - 1] == "src":
            return ".".join(parts[index:])
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return ".".join(parts[index:])
    for top in ("tests", "benchmarks", "examples"):
        if top in parts:
            index = len(parts) - 1 - parts[::-1].index(top)
            return ".".join(parts[index:])
    return parts[-1]

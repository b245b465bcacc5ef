"""Every package and module imports in a fresh interpreter.

An import cycle only bites when its first edge is the process's first import:
``import repro.ledger`` used to fail that way (``ledger.contract`` →
``chain.codec`` → ``chain/__init__`` → ``chain.audit`` → ``core/__init__`` →
``core.nodeset`` → ``ledger.contract``) while every entry point and every
test happened to import ``repro.chain`` or ``repro.core`` first.  One
interpreter per top-level package starts from that package, then imports each
of its modules; a last one imports every ``repro.*`` path DESIGN.md names, so
its module table cannot point at modules that do not exist.
"""

from __future__ import annotations

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _modules_by_entry_point() -> dict[str, list[str]]:
    """Top-level package or module → itself first, then every module under it."""
    groups: dict[str, list[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        if parts[-1] == "__main__":
            continue  # entry-point scripts run on import by design
        entry = ".".join(parts[:2])
        groups.setdefault(entry, [entry])
        name = ".".join(parts)
        if name != entry:
            groups[entry].append(name)
    return groups


MODULES = _modules_by_entry_point()


def _import_cold(names: list[str]) -> subprocess.CompletedProcess[str]:
    script = (
        "import importlib, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "for name in sys.argv[2:]:\n"
        "    importlib.import_module(name)\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script, str(SRC), *names],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("entry", sorted(MODULES))
def test_package_imports_cold(entry):
    result = _import_cold(MODULES[entry])
    assert result.returncode == 0, result.stderr[-2000:]


def test_the_walk_found_the_tree():
    assert {"repro", "repro.ledger", "repro.chain", "repro.net", "repro.cli"} <= set(MODULES)
    assert "repro.ledger.contract" in MODULES["repro.ledger"]
    assert sum(len(names) for names in MODULES.values()) > 100


def _design_paths() -> list[str]:
    text = (ROOT / "DESIGN.md").read_text()
    return sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", text)))


def _module_and_attributes(path: str) -> tuple[str, list[str]]:
    """The longest importable prefix of a dotted path, and what is left of it."""
    parts = path.split(".")
    for cut in range(len(parts), 1, -1):
        try:
            importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        return ".".join(parts[:cut]), parts[cut:]
    raise AssertionError(f"DESIGN.md names `{path}`, which does not import")


def test_design_md_names_modules_that_exist():
    """Each dotted path resolves: a module, or attributes of one."""
    paths = _design_paths()
    assert len(paths) > 40
    modules = set()
    for path in paths:
        module, attributes = _module_and_attributes(path)
        modules.add(module)
        target = importlib.import_module(module)
        for attribute in attributes:
            assert hasattr(target, attribute), f"DESIGN.md names `{path}`: no {attribute!r}"
            target = getattr(target, attribute)
    result = _import_cold(sorted(modules))
    assert result.returncode == 0, result.stderr[-2000:]

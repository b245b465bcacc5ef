"""Every package and module imports in a fresh interpreter, by one path.

An import cycle only bites when its first edge is the process's first import:
``import repro.ledger`` once failed that way, through package ``__init__``
files that re-exported their modules.  One interpreter per top-level package
starts from that package, then imports each of its modules; a last one
imports every ``repro.*`` path DESIGN.md names, so its module table cannot
point at modules that do not exist.

Each public name has one import path, the module that defines it: package
``__init__`` files hold their docstring and nothing else, and every
``from repro.X import Name`` in the tree names a submodule of ``X`` or
something ``X`` itself defines.
"""

from __future__ import annotations

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Patterns of the ``__init__`` statements allowed besides the docstring.  The
#: explorer's is the spine benchmark's import path (``benchmarks/spine`` stays
#: byte-stable so its runs compare across commits).
INIT_EXTRAS = {
    "repro": [r"__version__ = '[\d.]+'"],
    "repro.explorer": [r"from repro\.explorer\.http import start_explorer"],
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _modules_by_entry_point() -> dict[str, list[str]]:
    """Top-level package or module → itself first, then every module under it."""
    groups: dict[str, list[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = _module_name(path)
        if name.endswith(".__main__"):
            continue  # entry-point scripts run on import by design
        entry = ".".join(name.split(".")[:2])
        groups.setdefault(entry, [entry])
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
    assert sum(len(names) for names in MODULES.values()) > 90


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


def test_package_inits_hold_only_their_docstring():
    inits = sorted((SRC / "repro").rglob("__init__.py"))
    assert len(inits) > 10
    for path in inits:
        body = ast.parse(path.read_text()).body
        name = _module_name(path)
        assert body and isinstance(body[0], ast.Expr), f"{name}: no docstring"
        assert isinstance(body[0].value, ast.Constant), f"{name}: no docstring"
        extras = [ast.unparse(statement) for statement in body[1:]]
        patterns = INIT_EXTRAS.get(name, [])
        assert len(extras) == len(patterns) and all(
            re.fullmatch(pattern, extra)
            for pattern, extra in zip(patterns, extras, strict=True)
        ), f"{name} holds more than its docstring: {extras}"


def _defined_names(module: str) -> set[str]:
    """Names a module binds itself: top-level ``def``, ``class``, assignment."""
    base = SRC.joinpath(*module.split("."))
    path = base / "__init__.py" if base.is_dir() else base.with_suffix(".py")
    names: set[str] = set()
    pending = list(ast.parse(path.read_text()).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                leaf.id for target in targets for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            )
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse)
    return names


def _is_submodule(module: str, name: str) -> bool:
    base = SRC.joinpath(*module.split("."), name)
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


def _scanned_files() -> list[Path]:
    files = [
        path
        for top in ("src", "tests", "examples", "benchmarks")
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    # The spine benchmark stays byte-stable; its one package-path import is
    # the explorer's, which ``INIT_EXTRAS`` keeps working.
    return [p for p in files if (ROOT / "benchmarks" / "spine") not in p.parents]


def test_every_import_names_the_defining_module():
    defined: dict[str, set[str]] = {}
    wrong = []
    files = _scanned_files()
    assert len(files) > 150
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
                continue
            module = node.module
            if module != "repro" and not module.startswith("repro."):
                continue
            if module not in defined:
                defined[module] = _defined_names(module)
            for alias in node.names:
                if alias.name in defined[module] or _is_submodule(module, alias.name):
                    continue
                where = path.relative_to(ROOT)
                wrong.append(f"{where}:{node.lineno}: {alias.name} from {module}")
    assert not wrong, "\n".join(wrong)


#: Public names with no caller in ``src/``, ``benchmarks/`` or ``examples/``
#: that stay anyway, each with its reason.
CALLER_ALLOWLIST = {
    "ExplorerHandler.do_GET": "http.server dispatches GET requests to it by name",
    "ExplorerHandler.log_message": "http.server calls it to log each request",
    "BlockTree.leaves": "test observation: the tips a differential tree test compares",
    "Simulator.pending_events": "test observation: live events left in the heap",
    "SimulatedNetwork.uplink_backlog": "test observation: queued seconds on an uplink",
    "NodeSetContract.open_proposals": "test observation: governance tests wait on it",
    "SelfishMiner.withheld_count": "test observation: the attacker's private lead",
}


class _Loads(ast.NodeVisitor):
    """Every name a file loads, except uses of a same-named function parameter."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._params: list[set[str]] = [set()]

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for part in [*node.decorator_list, node.args, node.returns]:
            if part is not None:
                self.visit(part)  # decorators, defaults and annotations
        arguments = node.args
        every = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
        every += [a for a in (arguments.vararg, arguments.kwarg) if a is not None]
        self._params.append({a.arg for a in every})
        for statement in node.body:
            self.visit(statement)
        self._params.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id not in self._params[-1]:
            self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        self.names.add(node.name.rpartition(".")[2])


def _public_definitions(tree: ast.Module) -> list[tuple[str, str, bool]]:
    """(qualified name, leaf name, registered) for each public def, class, method."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        registered = any(
            isinstance(d, ast.Name) and d.id == "register" for d in node.decorator_list
        )
        found.append((node.name, node.name, registered))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item.name, registered)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
    return found


def test_every_public_name_has_a_caller_outside_tests():
    """A public name in ``src/repro`` that only tests use is dead code: delete it.

    A name counts as used when code in ``src/``, ``benchmarks/`` or
    ``examples/`` loads it (a bare name, an attribute or an import).  The
    match is by leaf name, so it is generous, never strict.  Classes the
    linter's ``@register`` collects are reached through its registry.
    """
    loads = _Loads()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            loads.visit(ast.parse(path.read_text()))
    unused, excused = [], set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        for qualified, leaf, registered in _public_definitions(ast.parse(path.read_text())):
            if registered or leaf in loads.names:
                continue
            if qualified in CALLER_ALLOWLIST:
                excused.add(qualified)
            else:
                unused.append(f"{module}.{qualified}")
    assert not unused, "no caller outside tests/:\n" + "\n".join(unused)
    stale = sorted(set(CALLER_ALLOWLIST) - excused)
    assert not stale, f"allowlisted, but gone or called now: {stale}"


def test_message_and_block_modules_import_light():
    """The wire dataclasses load neither the simulator nor numpy."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import repro.net.message, repro.chain.block\n"
        "print('numpy' in sys.modules)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro.'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    numpy_loaded, modules = result.stdout.splitlines()
    assert numpy_loaded == "False"
    allowed = ("repro.chain", "repro.crypto", "repro.errors", "repro.net", "repro.net.message")
    extra = [
        m for m in modules.split()
        if m not in allowed and not m.startswith(("repro.chain.", "repro.crypto."))
    ]
    assert not extra, extra


def test_no_run_path_loads_networkx():
    """Every run path is on the standard library: overlays come from the
    stdlib port in ``repro.net.topology`` and randomness and statistics from
    ``random`` and ``statistics``, so the CLI, the engine, the live node, the
    explorer and the fork model load neither networkx nor numpy."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import repro.cli, repro.sim.engine, repro.live.node_runner, repro.explorer\n"
        "import repro.analysis.forkmodel\n"
        "from repro.sim.runner import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig('themis', n=10, epochs=1))\n"
        "print(sorted({'networkx', 'numpy'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "[]"


#: The seams node code speaks through, by defining module, and the packages
#: whose code is node code.
SEAMS = {"repro.net.clock": ("Clock", "TimerHandle"), "repro.net.transport": ("Transport",)}
NODE_PACKAGES = ("consensus", "node", "core")


def _declared_members(module: str, cls: str) -> set[str]:
    path = SRC.joinpath(*module.split(".")).with_suffix(".py")
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    raise AssertionError(f"{module} defines no {cls}")


def _through_seam(node: ast.AST) -> str | None:
    """``sim`` or ``network`` when ``node`` is ``….ctx.sim`` / ``….ctx.network``."""
    if isinstance(node, ast.Attribute) and node.attr in ("sim", "network"):
        owner = node.value
        if (isinstance(owner, ast.Name) and owner.id == "ctx") or (
            isinstance(owner, ast.Attribute) and owner.attr == "ctx"
        ):
            return node.attr
    return None


def _leaf(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_seams_declare_only_what_node_code_calls():
    """Every member of ``Clock``, ``TimerHandle`` and ``Transport`` is reached
    by node code: through ``ctx.sim`` / ``ctx.network`` (``self.ctx.…``,
    ``self.node.ctx.…``), or, for a timer handle, on a name or attribute that
    holds what ``ctx.sim.schedule`` returned.  A member only a backend or a
    harness needs belongs on the concrete class, so a third backend (a
    replay transport) implements no more than node code uses."""
    reached: dict[str, set[str]] = {"sim": set(), "network": set(), "handle": set()}
    trees = [
        ast.parse(path.read_text())
        for package in NODE_PACKAGES
        for path in sorted((SRC / "repro" / package).rglob("*.py"))
    ]
    handles: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (seam := _through_seam(node.value)):
                reached[seam].add(node.attr)
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "schedule"
                and _through_seam(node.value.func.value) == "sim"
            ):
                handles.update(leaf for target in node.targets if (leaf := _leaf(target)))
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _leaf(node.value) in handles:
                reached["handle"].add(node.attr)
    assert {"now", "schedule"} <= reached["sim"] and "cancel" in reached["handle"]
    via = {"Clock": "sim", "TimerHandle": "handle", "Transport": "network"}
    unreached = sorted(
        f"{cls}.{member}"
        for module, classes in SEAMS.items()
        for cls in classes
        for member in _declared_members(module, cls) - reached[via[cls]]
    )
    assert not unreached, f"declared, but no node code calls them: {unreached}"

"""The extractor: one read, one tokenize, one parse, one walk per file.

This is the only module of the package that touches :mod:`ast`.  A file
is parsed once and :class:`_Extractor` visits each node once, top-down,
carrying the lexical context a fact needs (enclosing function, nearest
class, enclosing ``with`` items) and emitting the flat records of
:mod:`repro.lint.facts`.  Nothing here knows which rule consumes a
record, and scoping (which packages a hazard matters in) is left to the
rules; the config only supplies *matchers* — which dotted names read the
wall clock, which RNG attributes are seeded construction.

Import bindings are flat and whole-file: ``import time as t`` binds
``t`` everywhere in the file, function-local imports included (a file
that imports a hazard anywhere is treated as using it by that name), and
wherever the import sits — a module may import below its defs.  The walk
therefore records calls and name chains *as written*; they are resolved
against the bindings after it, once every import has been seen.  Relative
imports never alias the hazard modules and are ignored.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.lint.config import LintConfig
from repro.lint.context import module_name_for
from repro.lint.facts import (
    CallFact,
    ClassFact,
    ConnectionUse,
    FileFacts,
    FunctionFact,
    ImportFact,
    SourceFact,
    WriteFact,
)
from repro.lint.suppressions import collect_suppressions

_INIT_FAMILY = frozenset({"__post_init__", "__init__", "__new__"})
_SET_TYPE_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})
_ENVIRON_NAMES = frozenset({"os.environ", "os.environb", "os.getenv"})

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def extract_file(path: Path, display_path: str, config: LintConfig) -> FileFacts:
    """Read, tokenize, parse and walk one file.

    Raises ``OSError`` / ``SyntaxError`` / ``ValueError`` /
    ``RecursionError`` when the file cannot be analyzed; the engine turns
    those into REP900.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    facts = FileFacts(
        module=module_name_for(path),
        display_path=display_path,
        suppressions=collect_suppressions(source),
    )
    _Extractor(facts, config).run(tree)
    return facts


# -- small structural helpers (no walking) ---------------------------------------------


def _chain(node: ast.expr) -> tuple[list[str], bool]:
    """Identifiers of a Name/Attribute chain, root first, and whether the
    root is a plain name (``a.b.c`` → ``['a','b','c'], True``;
    ``f().b`` → ``['b'], False``)."""
    attrs: list[str] = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    rooted = isinstance(node, ast.Name)
    if isinstance(node, ast.Name):
        attrs.append(node.id)
    attrs.reverse()
    return attrs, rooted


def _terminal_name(node: ast.expr) -> str | None:
    """The last identifier of a Name/Attribute chain (``a.b.kind`` → ``kind``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_set_annotation(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return _terminal_name(target) in _SET_TYPE_NAMES


# -- the walker ------------------------------------------------------------------------


@dataclass
class _Scope:
    """Lexical state of the function body being walked."""

    fact: FunctionFact
    parent: "_Scope | None"
    #: The class whose body directly holds this def (REP023 attribute writes).
    owner: ClassFact | None
    #: Names annotated with a set type (REP003).
    set_names: set[str] = field(default_factory=set)
    global_names: set[str] = field(default_factory=set)
    #: Identifiers of the enclosing ``with`` items, within this function.
    guards: tuple[str, ...] = ()
    #: Name iterations, resolved against the body's set annotations on exit.
    name_iterations: list[tuple[str, int, int]] = field(default_factory=list)

    def enclosing(self) -> Iterator["_Scope"]:
        """This scope, then each enclosing function scope, innermost first."""
        scope: _Scope | None = self
        while scope is not None:
            yield scope
            scope = scope.parent


class _Call(NamedTuple):
    """A call as written, awaiting import resolution."""

    node: ast.Call
    function: FunctionFact | None
    #: Nearest enclosing class at the call site, for ``self.x()``.
    class_name: str | None
    #: The statement this call is the whole value of, if any: an ``Expr``
    #: discards the result, an ``Assign`` binds it to names.
    statement: ast.Expr | ast.Assign | None


class _ChainUse(NamedTuple):
    """An outermost Name/Attribute chain as written, and where it sits."""

    parts: list[str]
    rooted: bool
    line: int
    col: int
    function: FunctionFact | None
    guards: tuple[str, ...]


class _Extractor:
    """Single top-down walk producing one :class:`FileFacts` record."""

    def __init__(self, facts: FileFacts, config: LintConfig) -> None:
        self.facts = facts
        self.config = config
        self.module = facts.module
        self.bindings: dict[str, str] = {}
        self.scope: _Scope | None = None
        #: Nearest enclosing class name, for ``self.x()`` resolution.
        self.class_name: str | None = None
        #: The class whose body is being walked *directly* — reset inside defs.
        self.class_body: ClassFact | None = None
        #: Identifiers of the ``with`` items being visited, if any (an
        #: expression holds no statement, so these never nest).
        self.with_names: set[str] | None = None
        #: The statement being visited whose whole value is a call.
        self.statement: ast.Expr | ast.Assign | None = None
        # What a call or name chain *means* depends on the file's import
        # bindings and sqlite connection names, complete only when the
        # walk is: recorded as written here, resolved in :meth:`run`.
        self.calls: list[_Call] = []
        self.chains: list[_ChainUse] = []
        self.dispatch: dict[type[ast.AST], Callable[..., None]] = {
            ast.Import: self.visit_import,
            ast.ImportFrom: self.visit_import_from,
            ast.FunctionDef: self.visit_function,
            ast.AsyncFunctionDef: self.visit_function,
            ast.ClassDef: self.visit_class,
            ast.Call: self.visit_call,
            ast.Name: self.visit_name,
            ast.Attribute: self.visit_attribute,
            ast.Expr: self.visit_expr,
            ast.Assign: self.visit_assign,
            ast.AugAssign: self.visit_assign,
            ast.AnnAssign: self.visit_assign,
            ast.Delete: self.visit_assign,
            ast.Global: self.visit_global,
            ast.With: self.visit_with,
            ast.AsyncWith: self.visit_with,
            ast.For: self.visit_for,
            ast.AsyncFor: self.visit_for,
            ast.ListComp: self.visit_comprehension,
            ast.SetComp: self.visit_comprehension,
            ast.GeneratorExp: self.visit_comprehension,
            ast.DictComp: self.visit_comprehension,
        }

    def run(self, tree: ast.Module) -> None:
        self.children(tree)
        for call in self.calls:
            self.resolve_call(call)
        connections = self.facts.sqlite_bindings
        for use in self.chains:
            resolved = self.resolve(use.parts, use.rooted)
            if resolved is not None and (
                resolved in _ENVIRON_NAMES
                or resolved.startswith(("os.environ.", "os.environb."))
            ):
                self.facts.sources.append(
                    SourceFact("environ", resolved, use.line, use.col, use.function)
                )
            if use.function is not None and connections:
                self.facts.connection_uses.extend(
                    ConnectionUse(name, use.function.name, use.line, use.col, use.guards)
                    for name in use.parts
                    if name in connections
                )

    # -- traversal --------------------------------------------------------------------

    def visit(self, node: ast.AST) -> None:
        handler = self.dispatch.get(type(node))
        if handler is not None:
            handler(node)
        else:
            self.children(node)

    def children(self, node: ast.AST) -> None:
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        self.visit(item)
            elif isinstance(value, ast.AST):
                self.visit(value)

    def visit_all(self, nodes: list[ast.expr] | list[ast.stmt]) -> None:
        for node in nodes:
            self.visit(node)

    # -- names and resolution ---------------------------------------------------------

    def resolve(self, parts: list[str], rooted: bool) -> str | None:
        """``np.random.rand`` → ``numpy.random.rand`` when the root is an
        import binding; ``None`` otherwise (e.g. chains rooted at ``self``)."""
        if not rooted:
            return None
        base = self.bindings.get(parts[0])
        if base is None:
            return None
        return ".".join([base, *parts[1:]])

    @property
    def function(self) -> FunctionFact | None:
        """The innermost def being walked, ``None`` at module or class level."""
        return self.scope.fact if self.scope is not None else None

    def source(self, kind: str, detail: str, node: ast.expr) -> None:
        function = self.function
        self.facts.sources.append(
            SourceFact(kind, detail, node.lineno, node.col_offset, function)
        )

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            self.bindings[alias.asname or root] = alias.name if alias.asname else root
            self.facts.imports.append(
                ImportFact(alias.name, node.lineno, node.col_offset)
            )

    def visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        self.facts.imports.append(ImportFact(node.module, node.lineno, node.col_offset))
        for alias in node.names:
            if alias.name != "*":
                self.bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def chain(self, node: ast.expr, parts: list[str], rooted: bool) -> None:
        """Record one outermost Name/Attribute chain (every link of it
        starts where the chain does)."""
        scope = self.scope
        function, guards = (scope.fact, scope.guards) if scope is not None else (None, ())
        self.chains.append(
            _ChainUse(parts, rooted, node.lineno, node.col_offset, function, guards)
        )
        if self.with_names is not None:
            self.with_names.update(parts)

    def visit_name(self, node: ast.Name) -> None:
        self.chain(node, [node.id], True)

    def visit_attribute(self, node: ast.Attribute) -> None:
        parts, rooted = _chain(node)
        self.chain(node, parts, rooted)
        if not rooted:
            # Whatever the chain hangs off (a call, a subscript) is walked
            # on its own.
            current: ast.expr = node
            while isinstance(current, ast.Attribute):
                current = current.value
            self.visit(current)

    # -- definitions ------------------------------------------------------------------

    def visit_function(self, node: _FunctionNode) -> None:
        outer, owner = self.scope, self.class_body
        if owner is not None:
            qualname = f"{self.module}.{owner.name}.{node.name}"
        elif outer is not None:
            qualname = f"{outer.fact.qualname}.{node.name}"
        else:
            qualname = f"{self.module}.{node.name}"
        fact = FunctionFact(
            qualname=qualname,
            name=node.name,
            module=self.module,
            display_path=self.facts.display_path,
            line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            parent=outer.fact if outer is not None else None,
        )
        self.facts.functions.append(fact)
        scope = _Scope(fact=fact, parent=outer, owner=owner)
        # Decorators, defaults and annotations evaluate in the enclosing scope.
        self.visit_all(node.decorator_list)
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg,
                    args.kwarg):
            if arg is not None and arg.annotation is not None:
                self.visit(arg.annotation)
                if _is_set_annotation(arg.annotation):
                    scope.set_names.add(arg.arg)
        self.visit_all([d for d in (*args.defaults, *args.kw_defaults) if d is not None])
        if node.returns is not None:
            self.visit(node.returns)
        self.scope, self.class_body = scope, None
        self.visit_all(node.body)
        self.scope, self.class_body = outer, owner
        self.leave_function(scope)

    def leave_function(self, scope: _Scope) -> None:
        """Resolve the facts that depend on annotations anywhere in the body."""
        for name, line, col in scope.name_iterations:
            if any(name in s.set_names for s in scope.enclosing()):
                self.facts.sources.append(
                    SourceFact(
                        "set-name", f"set-typed variable {name!r}", line, col, scope.fact
                    )
                )

    def visit_class(self, node: ast.ClassDef) -> None:
        self.visit_all(node.decorator_list)
        self.visit_all(node.bases)
        self.visit_all([keyword.value for keyword in node.keywords])
        klass = ClassFact(
            name=node.name,
            line=node.lineno,
            bases=tuple(
                name for name in map(_terminal_name, node.bases) if name is not None
            ),
            methods=tuple(
                child.name
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            ),
        )
        self.facts.classes.append(klass)
        outer = (self.class_name, self.class_body)
        self.class_name, self.class_body = node.name, klass
        self.visit_all(node.body)
        self.class_name, self.class_body = outer

    # -- calls ------------------------------------------------------------------------

    def visit_call(self, node: ast.Call) -> None:
        statement = self.statement
        if statement is not None and statement.value is not node:
            statement = None
        self.calls.append(_Call(node, self.function, self.class_name, statement))
        self.children(node)

    def resolve_call(self, call: _Call) -> None:
        """Emit the facts of one recorded call, bindings now complete."""
        node, function = call.node, call.function
        parts, rooted = _chain(node.func)
        resolved = self.resolve(parts, rooted)
        display = ".".join(parts) if parts else "<call>"
        self.facts.calls.append(
            CallFact(
                line=node.lineno,
                col=node.col_offset,
                display=display,
                resolved=resolved,
                targets=self.call_targets(node.func, resolved, call.class_name),
                function=function,
                discarded=isinstance(call.statement, ast.Expr),
            )
        )
        if resolved is not None:
            kind = self.hazard_kind(resolved)
            if kind is not None:
                self.facts.sources.append(
                    SourceFact(kind, resolved, node.lineno, node.col_offset, function)
                )
        if resolved == "threading.Thread" or display.endswith("Thread"):
            for keyword in node.keywords:
                target = _terminal_name(keyword.value)
                if keyword.arg == "target" and target is not None:
                    self.facts.thread_targets.add(target)
        if isinstance(call.statement, ast.Assign) and (
            resolved == "sqlite3.connect" or display.endswith("sqlite3.connect")
        ):
            for name in map(_terminal_name, call.statement.targets):
                if name is not None:
                    self.facts.sqlite_bindings[name] = (
                        function.name if function is not None else None
                    )

    def call_targets(
        self, func: ast.expr, resolved: str | None, class_name: str | None
    ) -> tuple[str, ...]:
        if resolved is not None:
            return (resolved,)
        if isinstance(func, ast.Name):
            # A bare name is a function of this module or a builtin; the
            # match against the project function table happens at check
            # time, so a builtin simply never resolves.
            return (f"{self.module}.{func.id}",)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in {"self", "cls"}
            and class_name is not None
        ):
            return (f"{self.module}.{class_name}.{func.attr}",)
        return ()

    def hazard_kind(self, resolved: str) -> str | None:
        """The taint kind of calling ``resolved``, if that is a hazard."""
        config = self.config
        if resolved in config.wall_clock_calls:
            return "wall-clock"
        if resolved.startswith("random."):
            if resolved.split(".", 2)[1] not in config.stdlib_random_allowed:
                return "unseeded-rng"
        elif resolved.startswith("numpy.random."):
            if resolved.split(".", 3)[2] not in config.numpy_random_allowed:
                return "unseeded-rng"
        return None

    def visit_expr(self, node: ast.Expr) -> None:
        if isinstance(node.value, ast.Call):
            self.statement = node
        self.visit(node.value)

    # -- statements -------------------------------------------------------------------

    def visit_assign(
        self, node: ast.Assign | ast.AugAssign | ast.AnnAssign | ast.Delete
    ) -> None:
        targets: list[ast.expr] = (
            list(node.targets)
            if isinstance(node, (ast.Assign, ast.Delete))
            else [node.target]
        )
        value = None if isinstance(node, ast.Delete) else node.value
        scope = self.scope
        if isinstance(node, ast.AnnAssign):
            self.annotated_assign(node)
        if scope is not None:
            for target in targets:
                self.record_write(scope, node, target)
        if isinstance(node, ast.Assign) and isinstance(value, ast.Call):
            self.statement = node
        self.visit_all(targets)
        if value is not None:
            self.visit(value)

    def annotated_assign(self, node: ast.AnnAssign) -> None:
        self.visit(node.annotation)
        if (
            self.scope is not None
            and isinstance(node.target, ast.Name)
            and _is_set_annotation(node.annotation)
        ):
            self.scope.set_names.add(node.target.id)

    def record_write(self, scope: _Scope, node: ast.stmt, target: ast.expr) -> None:
        """Shared-state writes (REP023): constructor writes are initialization."""
        function_name = scope.fact.name
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if (
                function_name not in _INIT_FAMILY
                and scope.owner is not None
                and target.value.id == "self"
                and not isinstance(node, ast.Delete)
            ):
                self.facts.writes.append(
                    WriteFact(target.attr, function_name, scope.owner,
                              target.lineno, target.col_offset, scope.guards)
                )
        elif (
            isinstance(target, ast.Name)
            and target.id in scope.global_names
            and not isinstance(node, ast.Delete)
        ):
            self.facts.writes.append(
                WriteFact(target.id, function_name, None, target.lineno,
                          target.col_offset, scope.guards)
            )

    def visit_global(self, node: ast.Global) -> None:
        if self.scope is not None:
            self.scope.global_names.update(node.names)

    def visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        names: set[str] = set()
        self.with_names = names
        for item in node.items:
            self.visit(item.context_expr)
        self.with_names = None
        for item in node.items:
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        scope = self.scope
        if scope is None:
            self.visit_all(node.body)
            return
        outer = scope.guards
        scope.guards = (*outer, *sorted(names))
        self.visit_all(node.body)
        scope.guards = outer

    # -- iteration (REP003 / REP010) --------------------------------------------------

    def visit_for(self, node: ast.For | ast.AsyncFor) -> None:
        self.iteration(node.iter)
        self.children(node)

    def visit_comprehension(
        self, node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp
    ) -> None:
        for generator in node.generators:
            self.iteration(generator.iter)
        self.children(node)

    def iteration(self, node: ast.expr) -> None:
        """Record an iterable whose order is not canonical."""
        if isinstance(node, ast.Set):
            self.source("unordered-set", "a set literal", node)
        elif isinstance(node, ast.SetComp):
            self.source("unordered-set", "a set comprehension", node)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                self.source("unordered-set", f"a {func.id}() result", node)
            elif isinstance(func, ast.Attribute) and func.attr in _DICT_VIEW_METHODS:
                self.source("dict-view", f"a dict .{func.attr}() view", node)
        elif isinstance(node, ast.Name) and self.scope is not None:
            self.scope.name_iterations.append((node.id, node.lineno, node.col_offset))

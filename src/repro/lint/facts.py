"""Fact records: what one pass over a file yields, and their project merge.

:mod:`repro.lint.extract` visits every node of a file once and emits the
flat records below into one :class:`FileFacts`.  Rules never see syntax
trees; each is a predicate over these records plus
:class:`~repro.lint.config.LintConfig` scoping.  Two properties matter:

* **One fact, many rules.**  A ``time.time()`` call is recorded once, as a
  :class:`SourceFact` with its exact position and enclosing function.
  REP001 reports it where it sits (if the module is in scope); REP010
  propagates *the same record* through the call graph to every sink that
  reaches it.  A waiver on the source line therefore answers for both.
* **Facts are file-local.**  A record depends only on its own file and
  the config matchers; every cross-file question (is that callee an
  ``async def``?  does that call reach a project function?) is answered
  at check time against :class:`ProjectSymbols`, the merged tables.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lint.suppressions import SuppressionSet

if TYPE_CHECKING:  # pragma: no cover - typing-only
    from repro.lint.config import LintConfig

#: Taint source kinds and the base rule whose waiver sanitizes each.
SOURCE_BASE_CODES = {
    "wall-clock": "REP001",
    "unseeded-rng": "REP002",
    "unordered-set": "REP003",
    "environ": "REP006",
}

#: Iteration hazards REP003 polices inside sink functions.  Only
#: ``unordered-set`` is also a taint source: dict views are insertion-
#: ordered and set-typed names are a local annotation heuristic, so
#: neither propagates through REP010 (keeps its signal high).
ITERATION_KINDS = frozenset({"unordered-set", "dict-view", "set-name"})


# -- per-file records ------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionFact:
    """One ``def`` / ``async def``, wherever it sits in the file.

    ``qualname`` is ``module.func``, ``module.Class.method`` or — for a
    def nested in another — ``outer_qualname.func``.  ``parent`` is the
    enclosing function (``None`` at module or class level).
    """

    qualname: str
    name: str
    module: str
    display_path: str
    line: int
    is_async: bool
    parent: "FunctionFact | None" = None

    def enclosing(self) -> Iterator["FunctionFact"]:
        """This function, then each enclosing one, innermost first."""
        current: FunctionFact | None = self
        while current is not None:
            yield current
            current = current.parent


@dataclass(frozen=True)
class SourceFact:
    """One nondeterminism hazard, exactly where it occurs.

    ``kind`` is a key of :data:`SOURCE_BASE_CODES` or a member of
    :data:`ITERATION_KINDS`; ``detail`` is the human-readable culprit
    (``time.time``, ``a set literal``, ...) used verbatim in messages.
    ``function`` is the innermost enclosing def, ``None`` at module or
    class level.
    """

    kind: str
    detail: str
    line: int
    col: int
    function: FunctionFact | None


@dataclass(frozen=True)
class CallFact:
    """One call expression.

    ``display`` is the callee as written (``self.conn.execute``);
    ``resolved`` its import-resolved dotted name when the root is an
    import binding; ``targets`` the candidate project qualnames it may
    dispatch to (matched against the function table at check time).
    ``discarded`` marks a statement-level call whose result is dropped.
    """

    line: int
    col: int
    display: str
    resolved: str | None
    targets: tuple[str, ...]
    function: FunctionFact | None
    discarded: bool


@dataclass(frozen=True)
class ImportFact:
    """One imported module (``import a.b`` → ``a.b``; ``from x import y`` → ``x``)."""

    module: str
    line: int
    col: int


@dataclass(frozen=True)
class ClassFact:
    """A class definition: its base names and directly defined methods."""

    name: str
    line: int
    bases: tuple[str, ...]
    methods: tuple[str, ...]


@dataclass(frozen=True)
class WriteFact:
    """An assignment to shared state from inside a function (REP023).

    ``owner`` is the class for a ``self.<name>`` write in one of its
    methods, ``None`` for a write to a ``global``-declared name.
    ``guards`` are the identifiers of every enclosing ``with`` item in the
    same function — the rule decides which of them look like locks.
    """

    name: str
    function_name: str
    owner: ClassFact | None
    line: int
    col: int
    guards: tuple[str, ...]


@dataclass(frozen=True)
class ConnectionUse:
    """A use, inside ``function_name``, of a name bound to a sqlite connection."""

    name: str
    function_name: str
    line: int
    col: int
    guards: tuple[str, ...]


@dataclass
class FileFacts:
    """Everything the rules need to know about one file."""

    module: str
    display_path: str
    suppressions: SuppressionSet = field(default_factory=SuppressionSet)
    imports: list[ImportFact] = field(default_factory=list)
    functions: list[FunctionFact] = field(default_factory=list)
    sources: list[SourceFact] = field(default_factory=list)
    calls: list[CallFact] = field(default_factory=list)
    classes: list[ClassFact] = field(default_factory=list)
    #: Names passed as ``Thread(target=...)`` anywhere in the file.
    thread_targets: set[str] = field(default_factory=set)
    writes: list[WriteFact] = field(default_factory=list)
    #: Connection name → function that opened it (``None`` at module level).
    sqlite_bindings: dict[str, str | None] = field(default_factory=dict)
    connection_uses: list[ConnectionUse] = field(default_factory=list)


# -- the merged tables -----------------------------------------------------------------


class ProjectSymbols:
    """The fact records of every linted file, merged into lookup tables."""

    def __init__(self, files: Iterable[FileFacts], config: "LintConfig") -> None:
        #: Every linted file, in lint order: what rules iterate.  Two
        #: files may share a module name (``tests/x.py`` and
        #: ``benchmarks/spine/tests/x.py`` are both ``tests.x``).
        self.records: list[FileFacts] = list(files)
        #: Module → its fact record, for rules that look one module up
        #: (the last file wins a shared name).
        self.files: dict[str, FileFacts] = {}
        self.functions: dict[str, FunctionFact] = {}
        #: Function qualname → the unwaived taint sources in its own body.
        self.taint_sources: dict[str, list[SourceFact]] = {}
        for record in self.records:
            self.files[record.module] = record
            for function in record.functions:
                self.functions[function.qualname] = function
            self._collect_taint(record, config)

    def _collect_taint(self, record: FileFacts, config: "LintConfig") -> None:
        """Sort a file's in-function sources into live taint and waived.

        A source whose line carries the base rule's waiver — or REP010's —
        is sanitized: it does not propagate, and the waiver is consumed
        here so REP000 counts it as load-bearing.  This runs whatever the
        rule selection, because a base-rule waiver may exist *only* to
        stop a transitive leak.
        """
        # Wall-clock reads are a taint source everywhere EXCEPT the
        # packages that run on the host clock by design — crucially
        # *including* non-sim helper modules, the blind spot of REP001.
        skipped: set[str] = set()
        if config.is_wall_clock_exempt(record.module):
            skipped.add("wall-clock")
        if record.module in config.environ_allowed_modules:
            skipped.add("environ")
        for source in sorted(record.sources, key=lambda s: (s.line, s.col)):
            base = SOURCE_BASE_CODES.get(source.kind)
            if base is None or source.function is None or source.kind in skipped:
                continue
            if record.suppressions.is_suppressed(
                source.line, base
            ) or record.suppressions.is_suppressed(source.line, "REP010"):
                continue
            self.taint_sources.setdefault(source.function.qualname, []).append(source)


# -- taint search (REP010) -------------------------------------------------------------


@dataclass(frozen=True)
class TaintPath:
    """One sink→source call chain.

    ``chain`` runs from the sink (first) to the source-carrying function
    (last); ``call_line`` is where the sink makes the first call of the
    chain; ``source`` is the leaked hazard.
    """

    chain: tuple[FunctionFact, ...]
    call_line: int
    source: SourceFact

    def render(self) -> str:
        """``sink() -> helper() -> leaf()`` trace text."""
        return " -> ".join(f"{fn.name}()" for fn in self.chain)


def build_call_edges(project: ProjectSymbols) -> dict[str, list[tuple[str, int]]]:
    """Resolve call candidates into concrete project-function edges."""
    edges: dict[str, list[tuple[str, int]]] = {}
    for record in project.records:
        for call in record.calls:
            if call.function is None:
                continue
            caller = call.function.qualname
            for target in call.targets:
                if target in project.functions and target != caller:
                    edges.setdefault(caller, []).append((target, call.line))
                    break
    return edges


def taint_paths(
    sink: FunctionFact,
    project: ProjectSymbols,
    edges: dict[str, list[tuple[str, int]]],
    max_depth: int,
) -> list[TaintPath]:
    """Shortest call chain from ``sink`` to every reachable tainted function.

    The sink's *own* sources are excluded — direct hazards are REP001/002/
    003/006 territory; REP010 exists for the leaks one call away or more.
    One path is returned per (tainted function, source kind): the shortest,
    found breadth-first, so diagnostics stay stable and readable.
    """
    paths: list[TaintPath] = []
    queue: deque[tuple[str, tuple[FunctionFact, ...], int]] = deque(
        [(sink.qualname, (sink,), 0)]
    )
    visited = {sink.qualname}
    while queue:
        current, chain, first_line = queue.popleft()
        if len(chain) > max_depth:
            continue
        for callee, line in edges.get(current, ()):
            if callee in visited:
                continue
            visited.add(callee)
            next_chain = (*chain, project.functions[callee])
            call_line = first_line or line
            kinds: set[str] = set()
            for source in project.taint_sources.get(callee, ()):
                if source.kind not in kinds:
                    kinds.add(source.kind)
                    paths.append(TaintPath(next_chain, call_line, source))
            queue.append((callee, next_chain, call_line))
    return paths

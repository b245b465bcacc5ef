"""The determinism rules (REP001–REP010).

Every rule is a predicate over the fact records of
:mod:`repro.lint.facts`; the docstrings state the invariant and why
breaking it poisons the evaluation pipeline.  REP001/002/003/006 report a
:class:`~repro.lint.facts.SourceFact` where it sits; REP010 propagates
the same records through the call graph.  See
``docs/static-analysis.md`` for the user-facing catalogue.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.diagnostics import Diagnostic
from repro.lint.facts import ITERATION_KINDS, build_call_edges, taint_paths
from repro.lint.registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing-only
    from repro.lint.facts import ProjectSymbols


@register
class WallClockRule(Rule):
    """REP001 — the simulation owns time; the host clock must not leak in.

    Simulated runs are replayed from cache keys and merged across worker
    processes under a byte-identical contract.  A ``time.time()`` (or any
    host-clock read) inside a consensus / chain / network path makes two
    replays of the same key diverge.  Only ``Simulator.now`` may be read
    in simulation-path packages; harness-side wall timing (progress
    reporting) carries an explicit ``# repro: allow[REP001]`` waiver.
    """

    code = "REP001"
    name = "wall-clock-read"
    summary = "no host-clock reads in simulation-path packages"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        for record in project.records:
            if not self.config.is_sim_module(record.module):
                continue
            if self.config.is_wall_clock_exempt(record.module):
                continue
            for source in record.sources:
                if source.kind == "wall-clock":
                    yield self.diagnostic(
                        record.display_path,
                        source.line,
                        source.col,
                        f"wall-clock read {source.detail}() in simulation path; "
                        "only the simulated clock (Simulator.now) may be read",
                    )


@register
class UnseededRandomRule(Rule):
    """REP002 — randomness must flow through a seeded generator parameter.

    The stdlib ``random`` module functions and the legacy
    ``numpy.random`` module API draw from hidden process-global state:
    any import-order or scheduling difference reorders the stream and
    desynchronizes parallel workers from the serial baseline.  Seeded
    construction (``repro.rng.seeded_rng(seed)``, ``random.Random(seed)``)
    stays legal — the generator then travels as an explicit argument.
    """

    code = "REP002"
    name = "unseeded-rng"
    summary = "no global/unseeded RNG; pass a seeded generator instead"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        for record in project.records:
            for source in record.sources:
                if source.kind != "unseeded-rng":
                    continue
                if source.detail.startswith("random."):
                    message = (
                        f"global-state RNG call {source.detail}(); draw from a "
                        "seeded random.Random (repro.rng.seeded_rng(seed)) "
                        "passed in as a parameter"
                    )
                else:
                    message = (
                        f"legacy numpy.random module API {source.detail}(); draw "
                        "from a seeded random.Random (repro.rng.seeded_rng(seed)) "
                        "passed in as a parameter"
                    )
                yield self.diagnostic(
                    record.display_path, source.line, source.col, message
                )


@register
class UnorderedIterationRule(Rule):
    """REP003 — hash / serde / emission paths must iterate in sorted order.

    Set iteration order varies with ``PYTHONHASHSEED`` and insertion
    history; dict views reflect insertion order, which differs between a
    fresh run and a cache replay that rebuilt the dict another way.  Any
    such iteration that feeds hashing, serialization, or message emission
    (recognized by function name) must go through ``sorted(...)`` so the
    bytes — and therefore the cache keys and merge results — are canonical.
    """

    code = "REP003"
    name = "unordered-iteration"
    summary = "sort set/dict iteration feeding hashing, serde, or emission"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        pattern = re.compile(self.config.context_pattern, re.IGNORECASE)
        for record in project.records:
            if not self.config.is_sim_module(record.module):
                continue
            for source in record.sources:
                if source.kind not in ITERATION_KINDS or source.function is None:
                    continue
                # Reported against the outermost enclosing sink function.
                sinks = [
                    fn.name
                    for fn in source.function.enclosing()
                    if pattern.search(fn.name)
                ]
                if sinks:
                    yield self.diagnostic(
                        record.display_path,
                        source.line,
                        source.col,
                        f"iteration over {source.detail} inside {sinks[-1]}() "
                        "feeds hashing/serde/emission; wrap the iterable "
                        "in sorted(...)",
                    )


@register
class ProcessBoundaryRule(Rule):
    """REP006 — no pickle across the engine boundary, no ambient environ.

    Engine workers exchange JSON, never pickles: a pickle accepts
    arbitrary code on load and silently couples the cache format to
    interpreter internals.  ``os.environ`` is ambient, unrecorded input —
    a result computed under one environment replays under another — so
    reads are confined to the sanctioned config gateway
    (``repro.node.config``) and the benchmark conftest, where they are
    documented as harness-level, never physics-level, knobs.
    """

    code = "REP006"
    name = "process-boundary"
    summary = "no pickle in repro modules; environ reads only via the gateway"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        for record in project.records:
            if self.config.is_repro_module(record.module):
                for imported in record.imports:
                    root = imported.module.split(".")[0]
                    if root in self.config.pickle_modules:
                        yield self.diagnostic(
                            record.display_path,
                            imported.line,
                            imported.col,
                            f"import of {root!r} in a repro module; the engine's "
                            "process boundary speaks JSON only "
                            "(repro.sim.reporting round-trip)",
                        )
            if record.module in self.config.environ_allowed_modules:
                continue
            # One finding per line, at its leftmost read.
            first_on_line: dict[int, int] = {}
            for source in record.sources:
                if source.kind == "environ":
                    col = first_on_line.get(source.line, source.col)
                    first_on_line[source.line] = min(col, source.col)
            for line, col in first_on_line.items():
                yield self.diagnostic(
                    record.display_path,
                    line,
                    col,
                    "os.environ read outside the config gateway; route it "
                    "through repro.node.config so ambient state never "
                    "reaches cached physics",
                )


@register
class DeterminismTaintRule(Rule):
    """REP010 — nondeterminism must not reach serde/hash/emit paths, even
    transitively.

    REP001/REP002/REP003/REP006 flag a hazard at the line where it sits —
    but only inside the packages they police.  A helper in a utility
    module that reads ``time.time()`` passes every per-file rule, yet the
    moment a consensus serializer calls it the cache keys diverge between
    replays.  This rule walks the project call graph from every *sink*
    (a simulation-path function whose name matches the serde/hash/emit
    context pattern) and reports the shortest path to any function
    carrying a *source*: a wall-clock read, an unseeded RNG draw, an
    ``os.environ`` access, or unordered set iteration.  The diagnostic
    renders the full call chain so the leak is auditable at a glance.

    Sinks' own direct hazards are excluded (base-rule territory); a
    source waived inline with the base rule's code — or with REP010 — is
    sanitized and does not propagate.
    """

    code = "REP010"
    name = "determinism-taint"
    summary = "no transitive nondeterminism reaching serde/hash/emit paths"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        pattern = re.compile(self.config.context_pattern, re.IGNORECASE)
        edges = build_call_edges(project)
        for sink in project.functions.values():
            if not self.config.is_sim_module(sink.module):
                continue
            if not pattern.search(sink.name):
                continue
            for path in taint_paths(sink, project, edges, self.config.taint_max_depth):
                source = path.source
                if source.kind == "wall-clock" and self.config.is_wall_clock_exempt(
                    sink.module
                ):
                    continue
                leaf = path.chain[-1]
                yield self.diagnostic(
                    sink.display_path,
                    path.call_line,
                    0,
                    f"{source.kind} source reaches serde/emit path "
                    f"{sink.name}() via {path.render()}: "
                    f"{source.detail} at "
                    f"{leaf.display_path}:{source.line}",
                )

"""Async and thread-safety rules (REP020–REP024) for the live tier.

The live deployment path (``repro.live``) runs consensus on a real
asyncio loop, and the explorer (``repro.explorer``) serves reads from a
``ThreadingHTTPServer`` over a shared sqlite connection.  Both inherit
the simulator's correctness claims only if the event loop never stalls
and shared state never races: a blocked loop misses heartbeats and is
indistinguishable from a Byzantine peer to everyone else, and an
unlocked cross-thread sqlite read returns torn rows.  These rules encode
the concrete failure modes as predicates over the call, write and
connection records of :mod:`repro.lint.facts`.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - typing-only
    from repro.lint.facts import ClassFact, FileFacts, ProjectSymbols, WriteFact

_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})


def _repro_records(rule: Rule, project: "ProjectSymbols") -> Iterator["FileFacts"]:
    """The files these rules apply to: ``repro`` modules, not tests or benches."""
    for record in project.records:
        if rule.config.is_repro_module(record.module):
            yield record


def _thread_entries(record: "FileFacts", runner_bases: frozenset[str]) -> set[str]:
    """Names of functions/methods of a file that run off the main thread.

    Three recognizers, matching how this codebase (and the stdlib)
    spawn threads: ``Thread(target=fn)`` arguments, ``run()`` methods
    of ``Thread`` subclasses, and ``handle`` / ``do_*`` / ``run``
    methods of classes based on the threading ``socketserver`` and HTTP
    server machinery.
    """
    entries = set(record.thread_targets)
    for klass in record.classes:
        if runner_bases.intersection(klass.bases):
            entries.update(
                m for m in klass.methods if m in ("run", "handle") or m.startswith("do_")
            )
    return entries


def _locked(guards: tuple[str, ...], lock_re: re.Pattern[str]) -> bool:
    """True when any enclosing ``with`` item names something lock-like."""
    return any(lock_re.search(name) for name in guards)


@register
class BlockingInAsyncRule(Rule):
    """REP020 — ``async def`` bodies must never block the event loop.

    A ``time.sleep`` (or sync socket / sqlite / subprocess call) inside a
    coroutine freezes *every* task on the loop: heartbeats stop, peers
    time out, and the node looks Byzantine from the outside.  Use
    ``await asyncio.sleep(...)``, loop executors
    (``loop.run_in_executor``), or the async socket APIs.  Nested
    synchronous ``def``s are skipped — they are frequently executor or
    thread targets.
    """

    code = "REP020"
    name = "blocking-in-async"
    summary = "no blocking calls (time.sleep, sync I/O) inside async def"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        for record in _repro_records(self, project):
            for call in record.calls:
                if call.function is None or not call.function.is_async:
                    continue
                display = call.resolved or call.display
                if display in self.config.blocking_calls or display.startswith(
                    self.config.blocking_prefixes
                ):
                    yield self.diagnostic(
                        record.display_path,
                        call.line,
                        call.col,
                        f"blocking call {display}() inside async def "
                        f"{call.function.name}(); it stalls the event loop — use the "
                        "async equivalent or loop.run_in_executor",
                    )


@register
class UnawaitedCoroutineRule(Rule):
    """REP021 — calling an ``async def`` without ``await`` does nothing.

    The call builds a coroutine object and throws it away; the body never
    runs, no exception surfaces, and CPython's RuntimeWarning fires only
    at GC time.  The handshake you thought you sent was never sent.
    Detection is cross-module: the discarded call sites are per-file
    facts, matched here against the project-wide ``async def`` table.
    """

    code = "REP021"
    name = "unawaited-coroutine"
    summary = "async function results must be awaited or scheduled"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        async_functions = {
            qualname
            for qualname, function in project.functions.items()
            if function.is_async
        }
        for record in _repro_records(self, project):
            for call in record.calls:
                if call.discarded and async_functions.intersection(call.targets):
                    yield self.diagnostic(
                        record.display_path,
                        call.line,
                        call.col,
                        f"result of async function {call.display}() is "
                        "discarded; the coroutine never runs — await it or "
                        "schedule it with asyncio.create_task",
                    )


@register
class DroppedTaskRule(Rule):
    """REP022 — ``create_task`` results must be retained.

    The event loop keeps only a *weak* reference to tasks; a task whose
    handle is dropped can be garbage-collected mid-flight, silently
    cancelling the work (the CPython docs call this out explicitly).
    Keep the handle in a collection the owner cancels on shutdown, or
    attach a done-callback that surfaces failures.
    """

    code = "REP022"
    name = "dropped-task"
    summary = "retain asyncio.create_task handles; dropped tasks can vanish"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        for record in _repro_records(self, project):
            for call in record.calls:
                if call.discarded and call.display.split(".")[-1] in _TASK_SPAWNERS:
                    yield self.diagnostic(
                        record.display_path,
                        call.line,
                        call.col,
                        f"{call.display}() result dropped; the loop holds only a weak "
                        "reference, so the task may be garbage-collected before "
                        "it finishes — retain the handle and cancel it on "
                        "shutdown",
                    )


@register
class UnlockedSharedStateRule(Rule):
    """REP023 — state shared with a thread needs a lock on the thread side.

    A module global (via ``global``) or instance attribute written both
    by a thread entry point (``Thread`` target, ``run()``, a handler's
    ``handle()`` or ``do_*``) and by other code races unless the
    thread-side writes hold a lock: torn updates are rare enough to
    survive testing and frequent enough to corrupt a week-long run.
    Constructor writes (``__init__``-family) count as initialization,
    not sharing.
    """

    code = "REP023"
    name = "unlocked-shared-state"
    summary = "guard state written from both a thread target and elsewhere"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        lock_re = re.compile(self.config.lock_name_pattern, re.IGNORECASE)
        for record in _repro_records(self, project):
            entries = _thread_entries(record, self.config.thread_runner_bases)
            if not entries:
                continue
            # (owning class or None for a global, name) → function → writes
            writes: dict[
                tuple[ClassFact | None, str], dict[str, list[WriteFact]]
            ] = {}
            for write in record.writes:
                if write.owner is not None and lock_re.search(write.name):
                    continue  # assigning the lock object itself
                key = (write.owner, write.name)
                writes.setdefault(key, {}).setdefault(write.function_name, []).append(
                    write
                )
            for (owner, name), by_function in writes.items():
                entry_fns = sorted(fn for fn in by_function if fn in entries)
                other_fns = sorted(fn for fn in by_function if fn not in entries)
                if not entry_fns or not other_fns:
                    continue
                what = f"global {name!r}" if owner is None else f"attribute self.{name}"
                for fn in entry_fns:
                    for write in by_function[fn]:
                        if _locked(write.guards, lock_re):
                            continue
                        yield self.diagnostic(
                            record.display_path,
                            write.line,
                            write.col,
                            f"{what} written from thread entry {fn}() "
                            f"and from {', '.join(other_fns)}() without a "
                            "lock; wrap the thread-side write in the shared lock",
                        )


@register
class SqliteCrossThreadRule(Rule):
    """REP024 — sqlite connections must not cross threads unguarded.

    A ``sqlite3.Connection`` is not thread-safe; with
    ``check_same_thread=False`` nothing stops two handler threads from
    interleaving statements on one connection mid-transaction.  Any use
    of a connection from a thread entry point that did not open it must
    happen under a lock.
    """

    code = "REP024"
    name = "sqlite-cross-thread"
    summary = "sqlite connections used from handler threads need a lock"

    def check(self, project: "ProjectSymbols") -> Iterator[Diagnostic]:
        lock_re = re.compile(self.config.lock_name_pattern, re.IGNORECASE)
        for record in _repro_records(self, project):
            entries = _thread_entries(record, self.config.thread_runner_bases)
            for use in record.connection_uses:
                if use.function_name not in entries:
                    continue
                if record.sqlite_bindings[use.name] == use.function_name:
                    continue  # the entry opened its own connection: thread-local
                if _locked(use.guards, lock_re):
                    continue
                yield self.diagnostic(
                    record.display_path,
                    use.line,
                    use.col,
                    f"sqlite connection {use.name!r} used from thread entry "
                    f"{use.function_name}() without holding a lock; sqlite "
                    "connections are not thread-safe across threads — wrap "
                    "the access in the owning lock",
                )

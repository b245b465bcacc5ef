"""``repro.lint`` — determinism & protocol-safety static analysis.

The evaluation pipeline depends on bit-determinism: the experiment engine
asserts parallel runs are byte-identical to serial runs, and the result
cache replays sha256-keyed entries as if they were fresh physics.  One
unseeded RNG call, wall-clock read, or unordered-set iteration in a
consensus path silently poisons every figure the reproduction reports —
and the live asyncio/threaded tier adds its own failure modes (a blocked
event loop is indistinguishable from a Byzantine peer).  This package
encodes those invariants as named, testable rules:

========  ==============================================================
 code      invariant
========  ==============================================================
 REP001    no wall-clock reads in simulation-path packages
 REP002    no global / unseeded RNG (stdlib ``random``, legacy
           ``numpy.random`` module API)
 REP003    no unordered ``set``/``dict`` iteration feeding hashing,
           serde, or message emission without ``sorted()``
 REP006    no ``pickle`` across the engine's process boundary; no
           ``os.environ`` reads outside the sanctioned config gateway
 REP010    interprocedural determinism taint — no wall-clock / RNG /
           environ / unordered-set source reaching a serde, hash, or
           emit path through the call graph (trace in the diagnostic)
 REP020    no blocking calls (``time.sleep``, sync socket/sqlite I/O)
           inside ``async def`` bodies
 REP021    ``async def`` results must be awaited or scheduled, never
           discarded
 REP022    ``asyncio.create_task`` handles must be retained
 REP023    state written from both a thread entry point and other code
           needs a lock on the thread side
 REP024    sqlite connections used from handler threads need a lock
========  ==============================================================

Findings can be silenced per line with ``# repro: allow[CODE]`` (several
codes comma-separated); suppressions that silence nothing are themselves
reported (REP000) so stale waivers cannot accumulate.  The inline waiver
is the only acknowledgement mechanism: every accepted finding is visible
at the line it concerns.

Each file is read, tokenized and parsed once; one walk
(:mod:`repro.lint.extract`) turns it into flat fact records
(:mod:`repro.lint.facts`), and every rule is a predicate over those
records — REP001 and REP010 report from the *same* source fact.

Run it as ``python -m repro.lint src tests benchmarks examples`` or via the
main CLI as ``python -m repro lint``.  See ``docs/static-analysis.md``.
"""

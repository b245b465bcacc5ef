"""Rule configuration: which packages, modules and name patterns to check.

The defaults encode *this* repository's invariants (the packages whose
code runs inside the deterministic simulation, the environ gateway).
Tests construct custom configs pointed at fixture trees, so every rule is
exercised against minimal projects rather than the live codebase.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LintConfig:
    """Everything the rules need to know about the project layout."""

    #: Sub-packages of ``repro`` whose code executes inside the simulation
    #: (REP001/REP003 scope).  Only the simulated clock ticks here.
    #: ``storage`` and ``explorer`` are included even though they never run
    #: under the simulated clock: they serialize chain objects and serve
    #: them over process boundaries, exactly the territory REP003/REP006
    #: police; ``serde`` is the module every JSON record is written by.
    sim_packages: frozenset[str] = frozenset(
        {
            "serde",
            "consensus",
            "chain",
            "net",
            "node",
            "mining",
            "ledger",
            "sim",
            "chaos",
            "live",
            "storage",
            "explorer",
        }
    )

    #: Sub-packages exempt from REP001 *by design*: the live transport runs
    #: on real sockets and real time (asyncio's clock is the wall clock), so
    #: host-clock reads there are the point, not a leak.  The durable
    #: storage tier and the explorer HTTP service are wall-clock processes
    #: for the same reason.  Every other rule still applies — live code
    #: must stay seeded, sorted and pickle-free, and storage/explorer may
    #: NOT read ``os.environ`` directly (paths and settings arrive through
    #: the :mod:`repro.node.config` gateway, REP006).
    wall_clock_exempt_packages: frozenset[str] = frozenset(
        {"live", "storage", "explorer"}
    )

    #: Modules allowed to read ``os.environ`` (REP006).  Everything else —
    #: including the storage/explorer packages — must route through the
    #: :mod:`repro.node.config` gateway.
    environ_allowed_modules: frozenset[str] = frozenset(
        {"repro.node.config", "benchmarks.conftest"}
    )

    #: Function-name pattern marking hashing / serde / message-emission
    #: context for REP003 (matched case-insensitively as a substring).
    context_pattern: str = (
        r"hash|digest|sign|serial|canonical|encode|to_dict|to_bytes|to_json"
        r"|key_for|merkle|root|payload|emit|broadcast|gossip|send"
    )

    #: Names whose calls read the wall clock (REP001).
    wall_clock_calls: frozenset[str] = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    #: ``numpy.random`` attributes that are *not* the legacy global-state
    #: API: seeded construction stays legal (REP002).
    numpy_random_allowed: frozenset[str] = frozenset(
        {
            "default_rng",
            "Generator",
            "BitGenerator",
            "SeedSequence",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "MT19937",
            "SFC64",
        }
    )

    #: stdlib ``random`` attributes that are seeded-generator construction
    #: rather than hidden-global-state draws (REP002).
    stdlib_random_allowed: frozenset[str] = frozenset({"Random"})

    #: Module prefixes whose import is a process-boundary hazard (REP006).
    pickle_modules: frozenset[str] = frozenset(
        {"pickle", "cPickle", "_pickle", "dill", "cloudpickle", "shelve", "marshal"}
    )

    #: Calls that block the running thread — and therefore the event loop
    #: when made inside an ``async def`` body (REP020).
    blocking_calls: frozenset[str] = frozenset(
        {
            "time.sleep",
            "os.system",
            "os.wait",
            "os.waitpid",
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "urllib.request.urlopen",
            "socket.create_connection",
            "socket.getaddrinfo",
            "socket.gethostbyname",
            "select.select",
            "input",
        }
    )

    #: Dotted prefixes whose entire API is synchronous I/O (REP020):
    #: any resolved call under these blocks the loop.
    blocking_prefixes: tuple[str, ...] = ("sqlite3.", "requests.", "shutil.")

    #: Class bases whose instances run on their own thread: a ``run``,
    #: ``handle`` or ``do_*`` method of a subclass executes off the main
    #: thread (REP023/REP024).
    thread_runner_bases: frozenset[str] = frozenset(
        {
            "Thread",
            "ThreadingMixIn",
            "ThreadingHTTPServer",
            "ThreadingTCPServer",
            "BaseRequestHandler",
            "StreamRequestHandler",
            "BaseHTTPRequestHandler",
            "SimpleHTTPRequestHandler",
        }
    )

    #: Names that count as a lock guard when used as a context manager
    #: (``with self.reader_lock:``) for REP023/REP024.
    lock_name_pattern: str = r"lock|mutex|guard"

    #: Call-graph search depth for REP010 taint traces.
    taint_max_depth: int = 10

    # -- scope helpers ----------------------------------------------------------

    def is_sim_module(self, module: str) -> bool:
        """True for modules inside a simulation-path package."""
        if not module.startswith("repro."):
            return False
        parts = module.split(".")
        return len(parts) >= 2 and parts[1] in self.sim_packages

    def is_wall_clock_exempt(self, module: str) -> bool:
        """True for modules whose package may read the host clock (REP001)."""
        if not module.startswith("repro."):
            return False
        parts = module.split(".")
        return len(parts) >= 2 and parts[1] in self.wall_clock_exempt_packages

    def is_repro_module(self, module: str) -> bool:
        return module == "repro" or module.startswith("repro.")


DEFAULT_CONFIG = LintConfig()

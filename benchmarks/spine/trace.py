"""Span tracing from outside: timing wrappers around ``src/repro``'s public boundary.

Only the traced run imports this module.  :meth:`Tracer.install` replaces
each boundary (a method as a class attribute; a ``from``-imported function
as the importing module's global) with a wrapper that records one span per
call; :meth:`Tracer.uninstall` puts the originals back.  Spans nest on a
per-thread stack, so a boundary's *self time* is its duration minus the
time its child spans cover, and self times add up to the root spans'
duration with nothing counted twice.

The tracer aggregates ``calls`` and ``self_s`` per boundary name and keeps
the first :data:`SPAN_CAP` raw spans for ``trace-<workload>.json``.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any

#: Raw spans kept in memory (aggregates keep counting beyond it).
SPAN_CAP = 50_000

_READER_METHODS = (
    "generation",
    "members",
    "head",
    "block_by_id",
    "block_by_height",
    "blocks_page",
    "tx_by_id",
    "account_summary",
    "producer_counts",
)

#: boundary name -> the ``(module, dotted attribute)`` sites that implement it.
#: ``from``-imported functions are patched where they are *used*.
SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "sim.runner.run_experiment": (("repro.sim.runner", "run_experiment"),),
    "net.simulator.run": (("repro.net.simulator", "Simulator.run"),),
    "net.simulator.schedule": (("repro.net.simulator", "Simulator.schedule"),),
    "net.network.gossip": (("repro.net.network", "SimulatedNetwork.gossip"),),
    "net.network.gossip_deliver": (
        ("repro.net.network", "SimulatedNetwork.gossip_deliver"),
    ),
    "net.network.unicast": (("repro.net.network", "SimulatedNetwork.unicast"),),
    "consensus.powfamily.on_message": (
        ("repro.consensus.powfamily", "MiningNode.on_message"),
    ),
    "core.election.validate": (("repro.core.election", "BlockValidator.validate"),),
    "core.themis.add_block": (("repro.core.themis", "ConsensusChainState.add_block"),),
    "core.themis.table_for_anchor": (
        ("repro.core.themis", "ConsensusChainState.table_for_anchor"),
    ),
    "chain.blocktree.add_block": (("repro.chain.blocktree", "BlockTree.add_block"),),
    "core.geost.head": (("repro.core.geost", "GEOSTRule.head"),),
    "mining.oracle.sample_solve_time": (
        ("repro.mining.oracle", "MiningOracle.sample_solve_time"),
    ),
    "chaos.invariants.check_now": (
        ("repro.chaos.invariants", "InvariantMonitor.check_now"),
    ),
    "node.sync.on_message": (("repro.node.sync", "SyncManager.on_message"),),
    "crypto.keys.ecdsa_sign": (
        ("repro.crypto.signature", "ecdsa_sign"),
        ("repro.crypto.keys", "ecdsa_sign"),
    ),
    "crypto.keys.ecdsa_verify": (
        ("repro.crypto.signature", "ecdsa_verify"),
        ("repro.crypto.keys", "ecdsa_verify"),
    ),
    "net.wire.encode_message": (("repro.live.transport", "encode_message"),),
    "net.wire.decode_message": (("repro.live.transport", "decode_message"),),
    "live.transport.gossip": (("repro.live.transport", "TcpGossipTransport.gossip"),),
    "live.transport.gossip_deliver": (
        ("repro.live.transport", "TcpGossipTransport.gossip_deliver"),
    ),
    "node.node.submit_transaction": (("repro.node.node", "FullNode.submit_transaction"),),
    "ledger.mempool.add": (("repro.ledger.mempool", "Mempool.add"),),
    "ledger.mempool.select": (("repro.ledger.mempool", "Mempool.select"),),
    "ledger.executor.execute_block": (
        ("repro.ledger.executor", "Executor.execute_block"),
    ),
    "storage.sqlite.record_block": (
        ("repro.storage.sqlite", "SqliteStorage.record_block"),
    ),
    "storage.sqlite.commit": (("repro.storage.sqlite", "SqliteStorage.commit"),),
    "storage.sqlite.recover": (("repro.storage.sqlite", "SqliteStorage.recover"),),
    "live.loop.callback": (("asyncio.events", "Handle._run"),),
    "storage.sqlite.read": tuple(
        ("repro.storage.sqlite", f"SqliteStorage.{method}") for method in _READER_METHODS
    ),
    "explorer.http.respond": (("repro.explorer.http", "ExplorerServer.respond"),),
    "explorer.service.route": (("repro.explorer.http", "route"),),
}


def _resolve(module_name: str, dotted: str) -> tuple[Any, str]:
    """The object that owns the attribute, and the attribute's name."""
    owner: Any = importlib.import_module(module_name)
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Aggregating span recorder with install/uninstall of boundary wrappers."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: name -> every call's duration, for the names :meth:`keep` was given.
        self.durations: dict[str, list[float]] = {}
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        #: Identifies the workload run the following spans belong to.
        self.run_id = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: list[tuple[Any, str, Any]] = []

    def keep(self, *names: str) -> None:
        """Keep every call's duration for these boundaries (for maxima, and
        for pairing server spans with client requests)."""
        for name in names:
            self.durations.setdefault(name, [])

    # -- span arithmetic ----------------------------------------------------------

    def _begin(self) -> list[Any]:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        frame = [next(self._ids), time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _end(self, name: str, frame: list[Any]) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        span_id, start, child_s = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[0]
        kept = self.durations.get(name)
        if kept is not None:
            kept.append(duration)
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent_id, name, start, end, self.run_id))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (harness code uses this)."""
        frame = self._begin()
        try:
            yield
        finally:
            self._end(name, frame)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        begin, end = self._begin, self._end

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = begin()
            try:
                return fn(*args, **kwargs)
            finally:
                end(name, frame)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- boundary patching ----------------------------------------------------------

    def install(self, names: Iterable[str]) -> None:
        """Wrap every site of the named boundaries."""
        for name in names:
            for module_name, dotted in SITES[name]:
                owner, leaf = _resolve(module_name, dotted)
                original = owner.__dict__[leaf]  # bypass descriptors
                setattr(owner, leaf, self.wrap(name, original))
                self._installed.append((owner, leaf, original))

    def collect_instances(self, module_name: str, class_name: str) -> list[Any]:
        """Every instance of a class constructed from now on (until uninstall).

        Counters that live on objects the public result does not hand out
        (each simulated node's sync statistics) are read from these.
        """
        owner, leaf = _resolve(module_name, f"{class_name}.__init__")
        original = owner.__dict__[leaf]
        found: list[Any] = []

        def init(instance: Any, *args: Any, **kwargs: Any) -> None:
            found.append(instance)
            original(instance, *args, **kwargs)

        setattr(owner, leaf, init)
        self._installed.append((owner, leaf, original))
        return found

    def uninstall(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    # -- output -----------------------------------------------------------------------

    def total_self_s(self, prefix: str = "") -> float:
        return sum(value for name, value in self.self_s.items() if name.startswith(prefix))

    def write(self, path: Path, workload: str) -> None:
        """Dump aggregates and the kept raw spans as JSON."""
        names = sorted({span[2] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        record = {
            "workload": workload,
            "columns": ["id", "parent", "name", "start_s", "end_s", "run"],
            "names": names,
            "spans": [
                [span_id, parent, index[name], start, end, run]
                for span_id, parent, name, start, end, run in self.spans
            ],
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
        }
        path.write_text(json.dumps(record))

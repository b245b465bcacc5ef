"""Names, units, directions and bounds of everything the spine reports.

One place, so the runner, ``compare``, ``BENCHMARK.json`` and the README
cannot drift apart (``tests/test_catalogue.py`` holds ``BENCHMARK.json`` to
this file).  Importing it starts nothing and pulls in no ``repro`` module.
"""

from __future__ import annotations

from dataclasses import dataclass

SIM = ("sim_n40", "sim_churn_n20")
LIVE = ("live_n4_open", "live_n4_secure")
STORE = ("store_explore",)

#: name -> the one-line reason the workload exists.
WORKLOADS: dict[str, str] = {
    "sim_n40": (
        "figure-regeneration regime at committed defaults: per-node replicated "
        "tree work dominates; crypto, codec, sqlite and HTTP do nothing"
    ),
    "sim_churn_n20": (
        "same simulator layers under crashes, restarts, sync, drops, "
        "duplicates, a partition and reorgs: the recovery paths sim_n40 skips"
    ),
    "live_n4_open": (
        "4 live nodes on loopback TCP, unsigned, open loop at 200 tx/s with a "
        "node restart: codec, transport, ledger and sqlite with crypto bypassed"
    ),
    "live_n4_secure": (
        "same live harness with signed blocks and verified transactions: "
        "pure-Python ECDSA dominates, so only a crypto change shows here"
    ),
    "store_explore": (
        "sqlite ingest, cold recovery and a one-connection explorer mix beside "
        "a writer: storage and read tier alone, no sim or live code"
    ),
}


@dataclass(frozen=True)
class Metric:
    """One named metric.

    ``bound`` is the share by which the median may worsen before ``compare``
    calls it a regression (``None``: reported, never gated); a worsening of
    at most ``slack`` units never counts.  ``on`` lists the workloads that
    emit it.
    """

    name: str
    unit: str
    better: str
    bound: float | None
    on: tuple[str, ...]
    slack: float = 0.0


ALL = SIM + LIVE + STORE

#: The user-felt numbers, measured with tracing off.  Bounds start from the
#: issue's and are widened, where three same-seed sets on the 2-vCPU sandbox
#: disagreed by more, to about twice that disagreement (evidence: README,
#: "Measured spread").
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, ALL, slack=0.5),
    Metric("peak_rss_mb", "MB", "lower", 0.10, ALL),
    Metric("failed_share", "ratio", "lower", 0.0, ALL),
    Metric("sim_blocks_per_s", "blocks/s", "higher", 0.12, SIM),
    Metric("live_tx_cpu_ms", "ms/tx", "lower", 0.15, LIVE),
    Metric("live_pay_p50_ms", "ms", "lower", 0.15, ("live_n4_secure",)),
    Metric("live_commit_p50_ms", "ms", "lower", 0.15, ("live_n4_open",)),
    Metric("live_restart_synced_s", "s", "lower", 0.25, ("live_n4_open",), slack=1.0),
    Metric("store_ingest_blocks_per_s", "blocks/s", "higher", 0.15, STORE),
    Metric("store_recover_s", "s", "lower", 0.15, STORE),
    Metric("explorer_req_per_s", "req/s", "higher", 0.10, STORE),
    Metric("explorer_p50_ms", "ms", "lower", 0.10, STORE),
)

#: ``BENCHMARK.json``'s end-to-end list: the builder's contract wants every
#: metric on every workload, so the one throughput slot is filled per
#: workload from the named metric above (see ``PRIMARY``).
CONTRACT_END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, ALL, slack=0.5),
    Metric("peak_rss_mb", "MB", "lower", 0.10, ALL),
    Metric("throughput_per_s", "1/s", "higher", 0.25, ALL),
)

#: workload -> (named metric, invert): what ``throughput_per_s`` means there.
#: live_n4_open: committed tx per CPU-second of the whole cluster.
#: live_n4_secure: signed transfers one core builds, signs and admits per
#: second — the cluster's CPU per transaction swings by a quarter from run to
#: run there (forks re-verify the chain), which no bound could gate.
PRIMARY: dict[str, tuple[str, bool]] = {
    "sim_n40": ("sim_blocks_per_s", False),
    "sim_churn_n20": ("sim_blocks_per_s", False),
    "live_n4_open": ("live_tx_cpu_ms", True),
    "live_n4_secure": ("live_pay_p50_ms", True),
    "store_explore": ("explorer_req_per_s", False),
}

#: Timed boundaries, by group: each yields ``<name>.calls`` and ``<name>.self_s``.
#: The node-side ones run under the simulator and under the live tier alike.
NODE_BOUNDARIES = (
    "consensus.powfamily.on_message",
    "core.election.validate",
    "core.themis.add_block",
    "core.themis.table_for_anchor",
    "chain.blocktree.add_block",
    "core.geost.head",
    "node.sync.on_message",
)
SIM_BOUNDARIES = (
    "sim.runner.run_experiment",
    "net.simulator.run",
    "net.simulator.schedule",
    "net.network.gossip",
    "net.network.gossip_deliver",
    "net.network.unicast",
    "mining.oracle.sample_solve_time",
    "chaos.invariants.check_now",
    *NODE_BOUNDARIES,
)
LIVE_BOUNDARIES = (
    "crypto.keys.ecdsa_sign",
    "crypto.keys.ecdsa_verify",
    "net.wire.encode_message",
    "net.wire.decode_message",
    "live.transport.gossip",
    "live.transport.gossip_deliver",
    "node.node.submit_transaction",
    "ledger.mempool.add",
    "ledger.mempool.select",
    "ledger.executor.execute_block",
    "storage.sqlite.record_block",
    "storage.sqlite.commit",
    "storage.sqlite.recover",
    # The harness's root on the live workloads: every asyncio callback.  Its
    # self time is the loop work no named boundary claims (stream reads,
    # frame decoding, socket writes, timers).
    "live.loop.callback",
)
STORE_BOUNDARIES = (
    "storage.sqlite.read",
    "explorer.http.respond",
    "explorer.service.route",
)
BOUNDARIES = SIM_BOUNDARIES + LIVE_BOUNDARIES + STORE_BOUNDARIES

#: Counters and derived diagnostics, ``(name, unit, better)``.
COUNTERS: tuple[tuple[str, str, str], ...] = (
    # simulator
    ("sim.events", "count", "lower"),
    ("sim.blocks", "count", "lower"),
    ("net.messages_sent", "count", "lower"),
    ("net.bytes_sent", "bytes", "lower"),
    ("net.messages_dropped", "count", "lower"),
    ("net.msgs_per_block", "ratio", "lower"),
    ("chain.tree_adds_per_block", "ratio", "lower"),
    ("core.validates_per_block", "ratio", "lower"),
    ("consensus.reorgs", "count", "lower"),
    ("node.sync.syncs_completed", "count", "lower"),
    ("node.sync.blocks_received", "count", "lower"),
    ("chaos.crashes_recovered", "count", "higher"),
    # live
    ("live.blocks", "count", "lower"),
    ("live.reorgs", "count", "lower"),
    ("live.msgs_per_tx", "ratio", "lower"),
    ("live.bytes_per_tx", "bytes", "lower"),
    ("live.sqlite_commits_per_block", "ratio", "lower"),
    ("live.txs_on_chain_twice", "count", "lower"),
    ("live.block_propagation_p50_ms", "ms", "lower"),
    ("live.commit_p50_ms", "ms", "lower"),
    ("live.commit_tail_ms", "ms", "lower"),
    ("live.commit_tail_pct", "%", "higher"),
    ("live.loop_busy_share", "ratio", "lower"),
    ("live.restart.synced_s", "s", "lower"),
    ("live.restart.recover_s", "s", "lower"),
    ("live.restart.connected_s", "s", "lower"),
    ("live.restart.sync_timeouts", "count", "lower"),
    ("live.restart.blocks_fetched", "count", "lower"),
    ("bench.generator_late_p99_ms", "ms", "lower"),
    # storage + explorer
    ("storage.ingest_blocks_per_s", "blocks/s", "higher"),
    ("storage.recover_p50_s", "s", "lower"),
    ("storage.sqlite.commit_max_ms", "ms", "lower"),
    ("storage.db_bytes", "bytes", "lower"),
    ("explorer.p50_ms", "ms", "lower"),
    ("explorer.cache.hit_ratio", "ratio", "higher"),
    ("explorer.transfer_p50_ms", "ms", "lower"),
    ("explorer.tail_ms", "ms", "lower"),
    ("explorer.tail_pct", "%", "higher"),
    ("explorer.status_304", "count", "higher"),
    # harness: how far to trust the rows above
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.harness_self_s", "s", "lower"),
    ("bench.spans_recorded", "count", "lower"),
    ("bench.accounted_share", "ratio", "higher"),
)


def benchmark_manifest(run_seconds: int) -> dict:
    """What ``BENCHMARK.json`` must say (the self-tests hold the file to it)."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in CONTRACT_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer()
        ],
    }


def per_layer() -> tuple[Metric, ...]:
    """Every per-layer metric, in report order; all emitted on every workload
    (a layer a workload bypasses reads 0 calls, 0 s — that is the finding)."""
    out = []
    for name in BOUNDARIES:
        out.append(Metric(f"{name}.calls", "count", "lower", None, ALL))
        out.append(Metric(f"{name}.self_s", "s", "lower", None, ALL))
    out.extend(Metric(name, unit, better, None, ALL) for name, unit, better in COUNTERS)
    return tuple(out)

"""``live_n4_open`` and ``live_n4_secure``: four live nodes on one asyncio loop.

The cluster is assembled from the same public parts ``repro.live.node_runner
.run_node`` assembles — ``LiveClock``, ``TcpGossipTransport``, ``RunContext``,
``FullNode``, ``SqliteStorage`` through ``attach_storage`` — over real
loopback TCP, with the load generator and the commit poller on the same
loop (so the whole workload is one busy thread).

*Open loop*: transaction ``i`` is due at ``i / rate`` whatever the cluster
does, and its latency runs from that due time, so a stall is paid by every
transaction it delays.  A transaction counts as committed at the first poll
at which it sits on the common main-chain prefix of nodes 0–2.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.chain.genesis import make_genesis
from repro.chain.transaction import TX_SIZE, Transaction
from repro.consensus.base import RunContext
from repro.live.clock import LiveClock
from repro.live.localnet import free_ports
from repro.live.manifest import ConsortiumManifest, localhost_manifest
from repro.live.node_runner import storage_db_path
from repro.live.transport import TcpGossipTransport
from repro.mining.oracle import MiningOracle
from repro.node.config import FullNodeConfig
from repro.node.node import FullNode
from repro.storage.sqlite import SqliteStorage

from benchmarks.spine import catalogue, stats
from benchmarks.spine.common import Outcome, scratch_dir, span

if TYPE_CHECKING:
    from benchmarks.spine.trace import Tracer

NODES = 4
SETUP_REPEATS = 3
POLL_PERIOD_S = 0.01
CONNECT_TIMEOUT_S = 5.0

#: Seconds past the last due time the cluster gets to commit everything.
DRAIN_S = 8.0
#: Seconds the restarted node gets to reach node 0's head.
RESYNC_DEADLINE_S = 45.0
#: Seconds the final convergence may take, and how deep every transaction
#: must lie under the common prefix before the miners are stopped.
SETTLE_DEADLINE_S = 20.0
BURY_DEPTH = 3

#: The load window is cut into slices this long for the CPU-per-transaction
#: samples.
WINDOW_S = 1.0

#: Traced runs wrap the boundaries only after this share of the load, and
#: the CPU per transaction on either side is the overhead pair.
UNTRACED_SHARE = 0.2


@dataclass(frozen=True)
class LiveSpec:
    """One live workload's shape."""

    signed: bool
    i0: float
    rate: float  # transactions per second
    targets: int  # round-robin over nodes 0..targets-1
    stop_at: float | None  # node 3 down at this share of the load window
    rebuild_at: float | None  # and rebuilt at this one

    @property
    def per_window(self) -> int:
        """Transactions per ``WINDOW_S`` slice of the load."""
        return max(1, int(self.rate * WINDOW_S))


OPEN = LiveSpec(signed=False, i0=0.2, rate=200.0, targets=3, stop_at=0.25, rebuild_at=0.45)
SECURE = LiveSpec(signed=True, i0=1.0, rate=2.5, targets=4, stop_at=None, rebuild_at=None)


@dataclass
class Member:
    """One live node with the parts ``run_node`` would have built for it."""

    node: FullNode
    transport: TcpGossipTransport
    storage: SqliteStorage
    clock: LiveClock
    recovered_height: int = 0
    recover_s: float = 0.0
    connected_s: float = 0.0
    down: bool = False


async def boot_member(
    manifest: ConsortiumManifest, node_id: int, data_dir: Path, clock: LiveClock
) -> Member:
    """Listen, build the node, attach storage and recover from it."""
    transport = TcpGossipTransport(manifest=manifest, node_id=node_id, clock=clock)
    await transport.start()
    params = manifest.difficulty_params()
    ctx = RunContext(
        sim=clock,
        network=transport,
        oracle=MiningOracle(clock.rng, params.t0),
        genesis=make_genesis(),
        params=params,
        members=manifest.members(),
    )
    node = FullNode(
        node_id,
        manifest.keypairs()[node_id],
        ctx,
        FullNodeConfig(
            sign_blocks=manifest.sign_blocks,
            verify_signatures=manifest.verify_signatures,
        ),
    )
    storage = SqliteStorage(storage_db_path(data_dir, node_id))
    node.attach_storage(storage)
    begin = time.perf_counter()
    recovered = node.restore_from_storage()
    return Member(
        node, transport, storage, clock, recovered, recover_s=time.perf_counter() - begin
    )


async def connect_and_start(member: Member) -> None:
    """Wait for half the neighbours, then mine (after a sync if recovered)."""
    transport = member.transport
    begin = time.perf_counter()
    await transport.wait_connected(
        max(1, len(transport.neighbors(member.node.node_id)) // 2), CONNECT_TIMEOUT_S
    )
    member.connected_s = time.perf_counter() - begin
    if member.recovered_height > 0:
        member.node.start_after_sync()
    else:
        member.node.start()


async def shut_member(member: Member) -> None:
    """``run_node``'s clean shutdown: stop, close sockets, flush, close."""
    if member.down:
        return
    member.down = True
    member.node.stop()
    await member.transport.stop()
    member.storage.commit(member.node.state.head_id, member.node.state.tree, force=True)
    member.storage.close()


async def boot_cluster(manifest: ConsortiumManifest, data_dir: Path) -> list[Member]:
    data_dir.mkdir(parents=True, exist_ok=True)
    # Clocks back to back, so that every node's time zero agrees and block
    # timestamps of one node can be compared with arrival times at another.
    clocks = [LiveClock(seed=manifest.node_seed(i)) for i in range(NODES)]
    members = [await boot_member(manifest, i, data_dir, clocks[i]) for i in range(NODES)]
    for member in members:
        await connect_and_start(member)
    return members


def unsigned_transactions(seed: int, count: int) -> list[Transaction]:
    """``count`` unsigned 512-byte transfers, one fresh sender each (so every
    nonce is 0 and execution order cannot invalidate any of them)."""
    base = (seed % 2**64).to_bytes(8, "big")

    def build(order: int, padding: bytes) -> Transaction:
        sender = base + order.to_bytes(12, "big")
        recipient = bytes(16) + (order % 251).to_bytes(4, "big")
        return Transaction(sender, recipient, 0, 0, b"", padding)

    # The padding's own length prefix grows with it: settle the size first.
    padding = b""
    while (size := build(0, padding).size) != TX_SIZE:
        padding = bytes(len(padding) + TX_SIZE - size)
    return [build(order, padding) for order in range(count)]


@dataclass(frozen=True)
class Mark:
    """Process CPU, wall clock and transactions done at one instant."""

    cpu: float
    wall: float
    done: int


@dataclass
class LoadState:
    """What the generator and the poller share."""

    index: dict[bytes, int] = field(default_factory=dict)  # tx id -> submit order
    due: list[float] = field(default_factory=list)  # loop time each tx was due
    late: list[float] = field(default_factory=list)  # how late each submit ran
    pay_s: list[float] = field(default_factory=list)  # wall of each node.pay() call
    committed_at: dict[int, float] = field(default_factory=dict)
    marks: dict[str, Mark] = field(default_factory=dict)
    cpu_ticks: list[float] = field(default_factory=list)  # process CPU each WINDOW_S of load
    generator_done: bool = False

    def mark(self, name: str, done: int) -> None:
        self.marks[name] = Mark(time.process_time(), time.perf_counter(), done)


def common_prefix_height(nodes: list[FullNode]) -> int:
    """Height up to which every node's main chain is the same chain."""
    states = [node.state for node in nodes]
    height = min(state.height() for state in states)
    while len({state.block_at(height).block_id for state in states}) > 1:
        height -= 1
    return height


class CommitPoller:
    """Watches nodes 0–2 and stamps transactions as they reach the common prefix."""

    def __init__(self, watched: list[FullNode], load: LoadState) -> None:
        self.watched = watched
        self.load = load
        self._heads: tuple[bytes, ...] = ()
        self._scanned: list[bytes] = [watched[0].state.block_at(0).block_id]

    def poll(self, now: float) -> None:
        heads = tuple(node.state.head_id for node in self.watched)
        if heads == self._heads:
            return
        self._heads = heads
        height = common_prefix_height(self.watched)
        chain = self.watched[0].state
        # A reorg may have replaced blocks already scanned: rewind to the
        # last one still on the prefix, then stamp what is new above it.
        keep = min(height, len(self._scanned) - 1)
        while self._scanned[keep] != chain.block_at(keep).block_id:
            keep -= 1
        del self._scanned[keep + 1 :]
        for at in range(keep + 1, height + 1):
            block = chain.block_at(at)
            self._scanned.append(block.block_id)
            for tx in block.transactions:
                order = self.load.index.get(tx.tx_id)
                if order is not None:
                    self.load.committed_at.setdefault(order, now)


async def _generate(
    spec: LiveSpec,
    members: list[Member],
    txs: list[Transaction] | None,
    count: int,
    load: LoadState,
    tracer: Tracer | None,
    on_switch: Callable[[], None],
) -> None:
    """The open loop: submit transaction ``i`` at ``start + i / rate``."""
    loop = asyncio.get_running_loop()
    recipients = members[0].node.ctx.members
    start = loop.time()
    load.mark("start", 0)
    switch_index = int(UNTRACED_SHARE * count) if tracer is not None else -1
    for order in range(count):
        due = start + order / spec.rate
        delay = due - loop.time()
        # Behind schedule: still yield, so the cluster is never starved.
        await asyncio.sleep(max(0.0, delay))
        if order % spec.per_window == 0:
            load.cpu_ticks.append(time.process_time())
        if order == switch_index:
            load.mark("switch", order)
            on_switch()
        with span(tracer if order >= switch_index else None, "bench.generator"):
            load.due.append(due)
            load.late.append(loop.time() - due)
            node = members[order % spec.targets].node
            if txs is not None:
                tx = txs[order]
                load.index[tx.tx_id] = order
                node.submit_transaction(tx)
            else:
                begin = time.perf_counter()
                tx = node.pay(recipients[(order + 1) % NODES], 1)
                load.pay_s.append(time.perf_counter() - begin)
                load.index[tx.tx_id] = order
    load.generator_done = True


async def _restart_node3(
    spec: LiveSpec,
    members: list[Member],
    manifest: ConsortiumManifest,
    data_dir: Path,
    window: float,
    restart: dict[str, float],
) -> None:
    """Stop node 3 cleanly, then rebuild it on the same data dir."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    await asyncio.sleep(spec.stop_at * window)
    await shut_member(members[3])
    await asyncio.sleep(max(0.0, start + spec.rebuild_at * window - loop.time()))
    restart["rebuild_began"] = loop.time()
    # The rebuilt node keeps the clock it had.  A fresh ``LiveClock`` counts
    # from its own construction, so its block timestamps would lie seconds
    # behind its peers'; on an epoch anchor that reads as a very short epoch
    # and multiplies the base difficulty (x16 seen: see the README).
    member = await boot_member(manifest, 3, data_dir, members[3].clock)
    members[3] = member
    await connect_and_start(member)


async def _settle(members: list[Member], load: LoadState) -> bool:
    """Bring the cluster to one head that holds every transaction, and stop it.

    First every miner keeps going until each transaction lies ``BURY_DEPTH``
    blocks under the prefix all four nodes share: a fork at the tip can still
    displace a block, and a node that had adopted it does not put its
    transactions back in the pool, so only the other miners can rescue them.
    Then one miner stays on until every head agrees and is stopped in that
    same step — with all stopped at once, two nodes holding equal-weight
    forks would keep them for ever (ties go to the branch received first).
    A node still syncing would start mining when the sync ends, so syncs
    finish first.
    """
    deadline = time.perf_counter() + SETTLE_DEADLINE_S
    nodes = [member.node for member in members]

    def syncing() -> bool:
        return any(node.sync.active for node in nodes)

    def one_head() -> bool:
        return len({node.state.head_id for node in nodes}) == 1

    def all_buried() -> bool:
        settled_height = common_prefix_height(nodes) - BURY_DEPTH
        chain = nodes[0].state
        buried = {
            tx.tx_id
            for height in range(1, settled_height + 1)
            for tx in chain.block_at(height).transactions
        }
        return all(tx_id in buried for tx_id in load.index)

    while time.perf_counter() < deadline and (syncing() or not all_buried()):
        await asyncio.sleep(5 * POLL_PERIOD_S)
    for node in nodes[1:]:
        node.stop()
    while time.perf_counter() < deadline:
        if one_head() and not syncing():
            nodes[0].stop()
            await asyncio.sleep(0.3)  # anything still in a socket lands
            return one_head()
        await asyncio.sleep(POLL_PERIOD_S)
    nodes[0].stop()
    return False


def _set_tracing(tracer: Tracer, members: list[Member], on: bool) -> None:
    """Wrap (or unwrap) the live boundaries on a running cluster.

    A transport holds the node's ``on_message`` as a bound method taken at
    construction, so it is re-attached for the class patch to take effect.
    """
    if on:
        tracer.install(catalogue.LIVE_BOUNDARIES + catalogue.NODE_BOUNDARIES)
    else:
        tracer.uninstall()
    for member in members:
        member.transport.attach(member.node.node_id, member.node.on_message)


async def _drive(
    spec: LiveSpec,
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    quick: bool,
    workdir: Path,
    out: Outcome,
) -> None:
    loop = asyncio.get_running_loop()
    count = max(8, int(spec.rate * seconds))
    window = count / spec.rate
    restarting = spec.stop_at is not None and not quick

    # Set-up, several times over: generate the inputs and boot a cluster.
    members: list[Member] = []
    for attempt in range(SETUP_REPEATS):
        begin = time.perf_counter()
        manifest = replace(
            localhost_manifest(ports=free_ports(NODES), i0=spec.i0, seed=seed % 2**31),
            sign_blocks=spec.signed,
            verify_signatures=spec.signed,
        )
        txs = None if spec.signed else unsigned_transactions(seed, count)
        data_dir = workdir / f"data-{attempt}"
        members = await boot_cluster(manifest, data_dir)
        out.setup_samples.append(time.perf_counter() - begin)
        if attempt < SETUP_REPEATS - 1:
            for member in members:
                await shut_member(member)
    out.inputs_digest = stats.digest(
        [repr((spec, count, manifest.seed))] + [tx.tx_id for tx in txs or []]
    )

    load = LoadState()
    poller = CommitPoller([member.node for member in members[:3]], load)
    restart: dict[str, float] = {}
    first_node3 = members[3]

    def switch_tracing_on() -> None:
        if tracer is not None:
            _set_tracing(tracer, members, True)

    tasks = [
        loop.create_task(_generate(spec, members, txs, count, load, tracer, switch_tracing_on))
    ]
    if restarting:
        tasks.append(
            loop.create_task(_restart_node3(spec, members, manifest, data_dir, window, restart))
        )
    deadline = loop.time() + window + DRAIN_S
    resync_deadline = loop.time() + RESYNC_DEADLINE_S
    settled = False
    try:
        while True:
            now = loop.time()
            with span(tracer if "switch" in load.marks else None, "bench.poller"):
                poller.poll(now)
                if (
                    "rebuild_began" in restart
                    and "synced" not in restart
                    and members[3] is not first_node3
                    and members[3].node.state.head_id == members[0].node.state.head_id
                ):
                    restart["synced"] = now
            all_committed = load.generator_done and len(load.committed_at) == count
            if all_committed and "committed" not in load.marks:
                load.mark("committed", count)
            resynced = not restarting or "synced" in restart
            if (all_committed and resynced) or (
                now > deadline and (resynced or now > resync_deadline)
            ):
                break
            for task in tasks:
                if task.done():
                    task.result()  # a crashed generator must not hang the run
            await asyncio.sleep(POLL_PERIOD_S)
        load.mark("end", len(load.committed_at))
        if tracer is not None:
            _set_tracing(tracer, members, False)
        for task in tasks:
            await task
        settled = await _settle(members, load)
    finally:
        for task in tasks:
            task.cancel()
        if tracer is not None:
            tracer.uninstall()
        everyone = members if members[3] is first_node3 else [*members, first_node3]
        traffic = [
            (member.transport.stats.messages_sent, member.transport.stats.bytes_sent)
            for member in everyone
        ]
        for member in members:
            await shut_member(member)

    _check(out, members, load, restart, settled, data_dir)
    _measure(spec, out, tracer, members, load, restart, traffic)


def _check(
    out: Outcome,
    members: list[Member],
    load: LoadState,
    restart: dict[str, float],
    settled: bool,
    data_dir: Path,
) -> None:
    """One head, one state root, every transaction on that chain, and on disk."""
    nodes = [member.node for member in members]
    head = nodes[0].state.head_id
    on_chain: dict[bytes, int] = {}
    for block in nodes[0].main_chain():
        for tx in block.transactions:
            on_chain[tx.tx_id] = on_chain.get(tx.tx_id, 0) + 1
    stored_heads = []
    commits = 0
    for node_id in range(NODES):
        reader = SqliteStorage(storage_db_path(data_dir, node_id), read_only=True)
        stored_heads.append((reader.head() or {}).get("block_id"))
        commits += reader.generation()
        reader.close()
    out.checks = {
        "one_head": settled and all(node.state.head_id == head for node in nodes),
        "one_state_root": len({node.state_root() for node in nodes}) == 1,
        "every_tx_on_chain": all(tx_id in on_chain for tx_id in load.index),
        "stored_heads_match": all(stored == head.hex() for stored in stored_heads),
    }
    if "rebuild_began" in restart:
        out.checks["restarted_node_resynced"] = "synced" in restart
    out.layer["live.sqlite_commits_per_block"] = commits / max(
        1, NODES * nodes[0].state.height()
    )
    # Nothing stops a node re-mining a transaction that reached its pool
    # after the block that held it: reported, not failed (see the README).
    out.layer["live.txs_on_chain_twice"] = float(
        sum(1 for tx_id in load.index if on_chain.get(tx_id, 0) > 1)
    )


def _measure(
    spec: LiveSpec,
    out: Outcome,
    tracer: Tracer | None,
    members: list[Member],
    load: LoadState,
    restart: dict[str, float],
    traffic: list[tuple[int, int]],
) -> None:
    begin, end = load.marks["start"], load.marks["end"]
    committed = load.marks.get("committed", end)
    count = len(load.due)
    out.attempted = count
    out.failed = count - len(load.committed_at)
    out.timed_s = end.wall - begin.wall
    orders = sorted(load.committed_at)
    latencies_ms = [
        1000.0 * (load.committed_at[order] - load.due[order]) for order in orders
    ] or [0.0]
    # The value is the whole run's; the per-window samples show its spread.
    cpu_ms = 1000.0 * (committed.cpu - begin.cpu) / max(1, committed.done)
    windows = [
        1000.0 * (after - before) / spec.per_window
        for before, after in zip(load.cpu_ticks, load.cpu_ticks[1:], strict=False)
    ]
    out.metrics["live_tx_cpu_ms"] = stats.metric(
        "ms/tx", "lower", windows or [cpu_ms], value=cpu_ms
    )
    if spec.signed:
        out.metrics["live_pay_p50_ms"] = stats.metric(
            "ms", "lower", [1000.0 * value for value in load.pay_s]
        )
    else:
        out.metrics["live_commit_p50_ms"] = stats.metric("ms", "lower", latencies_ms)
    if "rebuild_began" in restart:
        synced_s = restart.get("synced", float("inf")) - restart["rebuild_began"]
        out.metrics["live_restart_synced_s"] = stats.metric("s", "lower", [synced_s])

    if tracer is None:
        out.layer.clear()
        return
    switch = load.marks["switch"]
    out.overhead_pair = (
        (switch.cpu - begin.cpu) / max(1, switch.done),
        (committed.cpu - switch.cpu) / max(1, committed.done - switch.done),
    )
    out.traced_wall_s = end.cpu - switch.cpu
    nodes = [member.node for member in members]
    # Propagation among nodes 0-2 only: node 3's tree was rebuilt from storage.
    addresses = {node.address for node in nodes[:3]}
    propagation_ms = [
        1000.0 * (node.tree.arrival_time(block.block_id) - block.header.timestamp)
        for node in nodes[:3]
        for block in node.tree.iter_blocks()
        if block.height > 0 and block.producer in addresses and block.producer != node.address
    ]
    tail_pct, tail_ms = stats.tail(latencies_ms)
    out.layer.update(
        {
            "live.blocks": float(nodes[0].state.height()),
            "live.reorgs": float(sum(node.stats.reorgs for node in nodes)),
            "live.msgs_per_tx": sum(sent for sent, _ in traffic) / max(1, len(orders)),
            "live.bytes_per_tx": sum(size for _, size in traffic) / max(1, len(orders)),
            "live.block_propagation_p50_ms": stats.quartiles(propagation_ms or [0.0])[1],
            "live.commit_p50_ms": stats.quartiles(latencies_ms)[1],
            "live.commit_tail_ms": tail_ms,
            "live.commit_tail_pct": tail_pct,
            # Every span on the loop nests under a live.loop.callback root,
            # so the self times add up to the time the loop was busy.
            "live.loop_busy_share": tracer.total_self_s() / (end.wall - switch.wall),
            "bench.generator_late_p99_ms": 1000.0 * stats.percentile(load.late, 99.0),
        }
    )
    if "rebuild_began" in restart:
        node3 = members[3]
        out.layer.update(
            {
                "live.restart.synced_s": out.metrics["live_restart_synced_s"]["value"],
                "live.restart.recover_s": node3.recover_s,
                "live.restart.connected_s": node3.connected_s,
                "live.restart.sync_timeouts": float(node3.node.sync.stats.timeouts),
                "live.restart.blocks_fetched": float(node3.node.sync.stats.blocks_received),
            }
        )


def _run(spec: LiveSpec, seed: int, seconds: float, tracer: Tracer | None, quick: bool) -> Outcome:
    out = Outcome()
    with scratch_dir() as workdir:
        asyncio.run(_drive(spec, seed, seconds, tracer, quick, workdir, out))
    return out


def run_open(seed: int, seconds: float, tracer: Tracer | None, quick: bool = False) -> Outcome:
    return _run(OPEN, seed, seconds, tracer, quick)


def run_secure(seed: int, seconds: float, tracer: Tracer | None, quick: bool = False) -> Outcome:
    return _run(SECURE, seed, seconds, tracer, quick)

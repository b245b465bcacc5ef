"""One live consortium node process (``python -m repro run-node``).

Boots the full simulated stack — :class:`~repro.node.node.FullNode` with
mempool, ledger and governance contract — over the live backends: the
:class:`~repro.live.clock.LiveClock` and
:class:`~repro.live.transport.TcpGossipTransport`.  The consensus code is
byte-for-byte the same code the simulator drives; only the two injected
backends differ.

With a data dir, the node's chain database is its one durable record:
the process recovers from it before talking to peers, and the
:mod:`~repro.live.localnet` driver reads it (read-only) to measure
convergence and TPS.  The process exits cleanly on SIGTERM, flushing and
checkpointing the database.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from pathlib import Path

from repro.consensus.base import consortium_context
from repro.errors import InvalidTransactionError
from repro.live.clock import LiveClock
from repro.live.manifest import ConsortiumManifest
from repro.live.transport import TcpGossipTransport
from repro.node.config import FullNodeConfig
from repro.node.node import FullNode
from repro.rng import below, exponential
from repro.storage.sqlite import SqliteStorage


def storage_db_path(data_dir: str | Path, node_id: int) -> Path:
    """The per-node chain database location under a shared data dir."""
    return Path(data_dir) / f"node-{node_id}.db"


async def run_node(
    *,
    manifest: ConsortiumManifest,
    node_id: int,
    data_dir: str | Path | None = None,
    tx_rate: float = 0.0,
    connect_timeout: float = 10.0,
    duration: float | None = None,
    stop_event: asyncio.Event | None = None,
) -> FullNode:
    """Run one live node until ``stop_event`` / SIGTERM (or ``duration``).

    Args:
        manifest: the shared consortium manifest.
        node_id: this process's member id.
        data_dir: directory for the durable chain database (None keeps the
            chain in memory only).  With a data dir, the process recovers
            its persisted chain before talking to peers, then syncs only
            the suffix it missed while down.
        tx_rate: submitted transactions per second (Poisson arrivals, paid
            to uniformly drawn other members); 0 disables the workload.
        connect_timeout: seconds to wait for overlay neighbors before
            starting anyway (a late-starting cluster must not deadlock).
        duration: optional hard runtime cap in seconds.
        stop_event: external shutdown trigger (tests); SIGTERM/SIGINT set
            it too when a loop signal handler can be installed.

    Returns:
        The (stopped) node, so callers can inspect its final state.
    """
    clock = LiveClock(seed=manifest.node_seed(node_id))
    transport = TcpGossipTransport(manifest=manifest, node_id=node_id, clock=clock)
    await transport.start()

    keys = manifest.keypairs()
    ctx = consortium_context(clock, clock.rng, transport, manifest.difficulty_params(), keys)
    node = FullNode(
        node_id,
        keys[node_id],
        ctx,
        FullNodeConfig(
            sign_blocks=manifest.sign_blocks,
            verify_signatures=manifest.verify_signatures,
        ),
    )

    storage: SqliteStorage | None = None
    recovered_height = 0
    if data_dir is not None:
        storage = SqliteStorage(storage_db_path(data_dir, node_id))
        node.attach_storage(storage)
        # Recover from disk BEFORE any peer contact: the chain replays from
        # the stored block rows, and the sync below only
        # fetches whatever the cluster mined while this process was down.
        recovered_height = node.restore_from_storage()

    if stop_event is None:
        stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, stop_event.set)

    # Start mining only once the overlay is reachable: the first blocks
    # would otherwise be mined into the void and force immediate syncs.
    min_peers = max(1, len(transport.neighbors(node_id)) // 2)
    await transport.wait_connected(min_peers, timeout=connect_timeout)
    if recovered_height > 0:
        # Mining waits for the catch-up sync so the first post-restart
        # block lands on the cluster's tip, not the pre-crash head.
        node.start_after_sync()
    else:
        node.start()

    members = ctx.members
    rng = clock.rng

    async def workload() -> None:
        while True:
            await asyncio.sleep(exponential(rng, tx_rate))
            recipient = members[below(rng, len(members))]
            with contextlib.suppress(InvalidTransactionError):
                node.pay(recipient, 1)

    def abort_on_crash(task: asyncio.Task[None]) -> None:
        # A crashed background task must stop the node loudly: a silently
        # dead workload skews every TPS figure downstream.
        if not task.cancelled() and task.exception() is not None:
            stop_event.set()

    tasks: list[asyncio.Task[None]] = []
    if tx_rate > 0:
        tasks.append(loop.create_task(workload(), name=f"workload-{node_id}"))
    for task in tasks:
        task.add_done_callback(abort_on_crash)

    crashed: list[tuple[str, BaseException]] = []
    try:
        if duration is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop_event.wait(), timeout=duration)
        else:
            await stop_event.wait()
    finally:
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception as exc:  # noqa: BLE001 — finish shutdown first
                crashed.append((task.get_name(), exc))
        node.stop()
        await transport.stop()
        if storage is not None:
            # Clean shutdown: flush any buffered blocks, checkpoint the WAL
            # back into the main database file, and close.  A localnet
            # teardown asserts no -wal/-shm files survive this.
            storage.commit(node.state.head_id, node.state.tree, force=True)
            storage.close()
    if crashed:
        # Re-raise after the clean shutdown so the failure is loud AND the
        # database still reflects a properly flushed node.
        name, exc = crashed[0]
        raise RuntimeError(f"background task {name!r} crashed") from exc
    return node


def main(
    *,
    manifest_path: str,
    node_id: int,
    data_dir: str | None = None,
    tx_rate: float = 0.0,
    duration: float | None = None,
) -> int:
    """Blocking entry point for the ``run-node`` CLI subcommand."""
    manifest = ConsortiumManifest.load(manifest_path)
    asyncio.run(
        run_node(
            manifest=manifest,
            node_id=node_id,
            data_dir=data_dir,
            tx_rate=tx_rate,
            duration=duration,
        )
    )
    return 0

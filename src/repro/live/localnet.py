"""The localhost cluster driver (``python -m repro localnet``).

Spawns one OS process per consortium member (each running the ``run-node``
entry point against a shared manifest), drives a transaction workload, and
reads each node's chain database (read-only) until every node agrees on a
common chain prefix of the requested height — the live-mode acceptance
check for Prop. 1's convergence claim, measured in wall-clock time
instead of simulated time.

The report carries wall-clock TPS over the converged prefix, per-node
heights, and whether teardown was clean.  Nothing here is deterministic —
real schedulers and real sockets decide ordering — which is exactly why
the parity suite (`tests/test_transport_parity.py`) separately pins the
simulated backend's byte-identical results.
"""

from __future__ import annotations

import socket
import sqlite3
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import ReproError, StorageError
from repro.live.manifest import localhost_manifest
from repro.live.node_runner import storage_db_path
from repro.storage.sqlite import SqliteStorage

#: One stored main chain as ``(block_id_hex, tx_count)`` from genesis up.
Chain = list[tuple[str, int]]

#: Seconds between database sweeps.
POLL_INTERVAL = 0.2


class LocalnetError(ReproError):
    """The cluster failed to launch, converge, or shut down."""


@dataclass(frozen=True, kw_only=True)
class LocalnetConfig:
    """One localnet run.

    Attributes:
        nodes: cluster size.
        target_height: common-prefix height that counts as converged.
        deadline: wall-clock seconds to reach it.
        tx_rate: per-node transaction submissions per second.
        i0: target block interval in real seconds (keep it sub-second for
            smoke tests; the difficulty calibration works at any scale).
        seed: manifest master seed.
        degree: gossip overlay degree.
        workdir: where the manifest lives (a temp dir when None).
        data_dir: directory for the per-node chain databases, which then
            outlive the run; nodes restarted against the same data dir
            recover from disk.  None puts them in the workdir.
        sign_blocks / verify_signatures: real ECDSA on headers and
            transactions (``--sign``; a couple of milliseconds per block).
    """

    nodes: int = 4
    target_height: int = 5
    deadline: float = 60.0
    tx_rate: float = 20.0
    i0: float = 0.5
    seed: int = 0
    degree: int = 6
    workdir: str | None = None
    data_dir: str | None = None
    sign_blocks: bool = False
    verify_signatures: bool = False

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise LocalnetError("a localnet needs at least two nodes")
        if self.target_height < 1:
            raise LocalnetError("target_height must be >= 1")
        if self.deadline <= 0:
            raise LocalnetError("deadline must be positive")


@dataclass
class LocalnetReport:
    """What one localnet run observed."""

    converged: bool
    common_height: int
    target_height: int
    elapsed: float
    tps: float
    committed_txs: int
    node_heights: dict[int, int] = field(default_factory=dict)
    clean_shutdown: bool = True
    #: Leaked WAL/journal files found beside the chain databases after
    #: teardown (empty when shutdown was clean).
    leaked_files: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "CONVERGED" if self.converged else "DID NOT CONVERGE"
        return (
            f"localnet {status}: common prefix height {self.common_height}"
            f"/{self.target_height} after {self.elapsed:.1f}s wall clock, "
            f"{self.committed_txs} txs committed, {self.tps:.1f} TPS"
        )


def free_ports(count: int) -> list[int]:
    """Reserve ``count`` distinct ephemeral localhost ports.

    The sockets are held open while choosing (so the OS cannot hand the
    same port out twice) and closed just before returning — the classic
    small race is acceptable for a test cluster on localhost.
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def read_chain(db: Path) -> Chain | None:
    """One node's stored main chain, or ``None`` while it is not readable.

    The read-only connection lives for this one read, so it never holds
    the database when the node checkpoints it at shutdown.  A file not yet
    created, or one whose schema is not yet written, is not ready.
    """
    try:
        reader = SqliteStorage(db, read_only=True)
    except (StorageError, sqlite3.DatabaseError):
        return None
    try:
        page = reader.blocks_page(None, reader.tip_height() + 1)
    except sqlite3.DatabaseError:
        return None
    finally:
        reader.close()
    return [(record["block_id"], record["tx_count"]) for record in reversed(page)]


def common_prefix_height(chains: list[Chain]) -> int:
    """Highest height at which every chain holds the same block id."""
    if not chains:
        return 0
    depth = min(len(chain) for chain in chains)
    agreed = 0
    for height in range(1, depth):
        ids = {chain[height][0] for chain in chains}
        if len(ids) != 1:
            break
        agreed = height
    return agreed


def run_localnet(config: LocalnetConfig) -> LocalnetReport:
    """Launch the cluster, wait for convergence, tear it down, report."""
    with tempfile.TemporaryDirectory(prefix="repro-localnet-") as tmp:
        workdir = Path(config.workdir) if config.workdir is not None else Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        manifest = localhost_manifest(
            ports=free_ports(config.nodes),
            seed=config.seed,
            degree=config.degree,
            i0=config.i0,
        )
        if config.sign_blocks or config.verify_signatures:
            manifest = replace(
                manifest,
                sign_blocks=config.sign_blocks,
                verify_signatures=config.verify_signatures,
            )
        manifest_path = workdir / "manifest.json"
        manifest.save(manifest_path)
        data_dir = Path(config.data_dir) if config.data_dir is not None else workdir

        processes: dict[int, subprocess.Popen[bytes]] = {}
        try:
            for i in range(config.nodes):
                processes[i] = subprocess.Popen(
                    node_command(
                        manifest_path=manifest_path,
                        node_id=i,
                        tx_rate=config.tx_rate,
                        duration=config.deadline + 30.0,
                        data_dir=str(data_dir),
                    ),
                )
            report = _watch(config, processes, data_dir)
        finally:
            report_clean = _teardown(processes)
        report.clean_shutdown = report_clean
        report.leaked_files = storage_turds(data_dir)
        return report


def node_command(
    *,
    manifest_path: str | Path,
    node_id: int,
    tx_rate: float,
    duration: float,
    data_dir: str | None = None,
) -> list[str]:
    """The ``run-node`` argv for one cluster member (restarts reuse it)."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "run-node",
        "--manifest",
        str(manifest_path),
        "--node-id",
        str(node_id),
        "--tx-rate",
        str(tx_rate),
        "--duration",
        str(duration),
    ]
    if data_dir is not None:
        argv.extend(["--data-dir", data_dir])
    return argv


def storage_turds(data_dir: str | Path) -> list[str]:
    """Journal/WAL leftovers that a clean storage shutdown must not leave."""
    directory = Path(data_dir)
    leftovers = []
    for pattern in ("*-wal", "*-shm", "*-journal"):
        leftovers.extend(sorted(str(p) for p in directory.glob(pattern)))
    return leftovers


def _watch(
    config: LocalnetConfig,
    processes: dict[int, subprocess.Popen[bytes]],
    data_dir: Path,
) -> LocalnetReport:
    """Read the nodes' chain databases until convergence or the deadline."""
    start = time.monotonic()
    best_height = 0
    chains: dict[int, Chain] = {}
    while time.monotonic() - start < config.deadline:
        for node_id, process in sorted(processes.items()):
            code = process.poll()
            if code is not None:
                raise LocalnetError(
                    f"node {node_id} exited early with code {code}"
                )
            chain = read_chain(storage_db_path(data_dir, node_id))
            if chain:
                chains[node_id] = chain
        if len(chains) == len(processes):
            best_height = common_prefix_height([chains[i] for i in sorted(chains)])
            if best_height >= config.target_height:
                elapsed = time.monotonic() - start
                reference = chains[min(chains)]
                committed = sum(count for _, count in reference[1 : best_height + 1])
                return LocalnetReport(
                    converged=True,
                    common_height=best_height,
                    target_height=config.target_height,
                    elapsed=elapsed,
                    tps=committed / elapsed if elapsed > 0 else 0.0,
                    committed_txs=committed,
                    node_heights=_heights(chains),
                )
        time.sleep(POLL_INTERVAL)
    return LocalnetReport(
        converged=False,
        common_height=best_height,
        target_height=config.target_height,
        elapsed=time.monotonic() - start,
        tps=0.0,
        committed_txs=0,
        node_heights=_heights(chains),
    )


def _heights(chains: dict[int, Chain]) -> dict[int, int]:
    return {node_id: len(chain) - 1 for node_id, chain in sorted(chains.items())}


def _teardown(processes: dict[int, subprocess.Popen[bytes]]) -> bool:
    """SIGTERM every node, escalate to SIGKILL on stragglers."""
    clean = True
    for process in processes.values():
        if process.poll() is None:
            process.terminate()
    deadline = time.monotonic() + 10.0
    for process in processes.values():
        remaining = max(0.1, deadline - time.monotonic())
        try:
            process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            clean = False
            process.kill()
            process.wait(timeout=5.0)
    return clean

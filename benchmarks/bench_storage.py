"""Durable-storage benchmark: sqlite write throughput, commit stalls, recovery.

Times the :mod:`repro.storage` sqlite backend against a synthetic but
structurally realistic chain (linear history, fixed transactions per
block, producers cycling round-robin).  Blocks are unsigned — ECDSA
costs ~0.25 ms per signature and ~0.6–1.7 ms per verification, which
would blur the storage numbers this suite exists to isolate: batched ``INSERT`` throughput, the
slowest commit (``commit_max_ms``), and cold-start recovery (a replay of
every stored block row).

Two grids:

* ``standard`` — 2 000 blocks x 20 txs: the headline numbers.
* ``smoke`` — 300 blocks x 5 txs for CI.  The CI job gates sqlite write
  throughput against the committed run of the *same* grid and fails
  when it drops below ``1/factor`` of it.

``BENCH_storage.json`` records both grids (``--grid all``).

Usage::

    PYTHONPATH=src python benchmarks/bench_storage.py --grid all --out BENCH_storage.json
    PYTHONPATH=src python benchmarks/bench_storage.py --grid smoke --check BENCH_storage.json

Determinism: the report records the head block id and row counts of the
generated chain; two invocations of the same grid must agree on both
(timings excluded).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.chain.block import BLOCK_VERSION, Block, BlockHeader
from repro.chain.blocktree import BlockTree
from repro.chain.genesis import make_genesis
from repro.chain.transaction import Transaction
from repro.crypto.merkle import merkle_root_of_payloads
from repro.storage.sqlite import SqliteStorage

#: Report format version (bump on schema changes).
SCHEMA_VERSION = 1

#: CI gate: fail when sqlite write throughput falls below baseline/factor.
DEFAULT_REGRESSION_FACTOR = 4.0

#: Distinct producers in the synthetic consortium.
PRODUCERS = 8


@dataclass(frozen=True)
class GridSpec:
    """One benchmark run: a synthetic chain shape and commit cadence."""

    blocks: int
    txs_per_block: int
    commit_every: int


GRIDS: dict[str, GridSpec] = {
    # The committed baseline: long enough that per-block cost dominates
    # fixed costs.
    "standard": GridSpec(blocks=2000, txs_per_block=20, commit_every=16),
    # Reduced shape for the CI smoke job.
    "smoke": GridSpec(blocks=300, txs_per_block=5, commit_every=16),
}


def _address(i: int) -> bytes:
    return i.to_bytes(4, "big") * 5  # 20 deterministic bytes


def build_chain(spec: GridSpec) -> BlockTree:
    """Deterministic linear chain of unsigned blocks."""
    genesis = make_genesis()
    tree = BlockTree(genesis)
    parent = genesis.block_id
    for height in range(1, spec.blocks + 1):
        txs = tuple(
            Transaction(
                sender=_address(height % PRODUCERS),
                recipient=_address((height + position + 1) % PRODUCERS),
                amount=100 + position,
                nonce=height * spec.txs_per_block + position,
            )
            for position in range(spec.txs_per_block)
        )
        header = BlockHeader(
            version=BLOCK_VERSION,
            height=height,
            parent_hash=parent,
            merkle_root=merkle_root_of_payloads(tx.to_bytes() for tx in txs),
            timestamp=float(height),
            producer=_address(height % PRODUCERS),
            difficulty_multiple=1.0,
            base_difficulty=1.0,
            epoch=height // 500,
            nonce=height,
        )
        block = Block(header, None, txs)
        tree.add_block(block, float(height))
        parent = block.block_id
    return tree


def bench_sqlite_write(tree: BlockTree, spec: GridSpec, db: Path) -> dict:
    """Record + commit the whole chain the way a node does: in batches."""
    storage = SqliteStorage(db, batch_size=spec.commit_every)
    blocks = [b for b in tree.iter_blocks() if b.height > 0]
    head_id = blocks[-1].block_id
    commit_max = 0.0

    def commit(head: bytes, force: bool = False) -> None:
        nonlocal commit_max
        begin = time.perf_counter()
        storage.commit(head, tree, force=force)
        commit_max = max(commit_max, time.perf_counter() - begin)

    start = time.perf_counter()
    storage.ensure_genesis(tree.get(tree.genesis_id))
    for block in blocks:
        storage.record_block(block, float(block.height))
        if storage.should_commit():
            commit(block.block_id)
    commit(head_id, force=True)
    wall = time.perf_counter() - start
    record = {
        "wall_s": round(wall, 3),
        "blocks_per_s": round(len(blocks) / wall, 1),
        "txs_per_s": round(len(blocks) * spec.txs_per_block / wall, 1),
        "commit_max_ms": round(commit_max * 1000, 1),
        "rows": storage.block_row_count(),
        "db_bytes": db.stat().st_size,
    }
    storage.close()
    return record


def bench_sqlite_recover(db: Path) -> dict:
    """Cold start: open the database and rebuild the block tree."""
    start = time.perf_counter()
    storage = SqliteStorage(db, read_only=True)
    recovered = storage.recover()
    wall = time.perf_counter() - start
    assert recovered is not None
    record = {
        "wall_s": round(wall, 3),
        "blocks_per_s": round(recovered.max_height() / wall, 1),
        "recovered_height": recovered.max_height(),
    }
    storage.close()
    return record


def run_grid(grid: str, spec: GridSpec, workdir: Path) -> dict:
    print(
        f"grid '{grid}': {spec.blocks} blocks x {spec.txs_per_block} txs, "
        f"commit every {spec.commit_every}",
        file=sys.stderr,
    )
    start = time.perf_counter()
    tree = build_chain(spec)
    build_wall = time.perf_counter() - start
    head = max(tree.iter_blocks(), key=lambda b: b.height)

    db = workdir / "bench.db"
    sqlite_write = bench_sqlite_write(tree, spec, db)
    sqlite_recover = bench_sqlite_recover(db)

    for label, record in (
        ("sqlite write", sqlite_write),
        ("sqlite recover", sqlite_recover),
    ):
        stall = record.get("commit_max_ms")
        print(
            f"  {label:<15} {record['wall_s']:7.3f}s  "
            f"{record['blocks_per_s']:>9.1f} blocks/s"
            + ("" if stall is None else f"  slowest commit {stall:.1f} ms"),
            file=sys.stderr,
        )
    return {
        "blocks": spec.blocks,
        "txs_per_block": spec.txs_per_block,
        "commit_every": spec.commit_every,
        "head": head.block_id.hex(),
        "build_s": round(build_wall, 3),
        "sqlite_write": sqlite_write,
        "sqlite_recover": sqlite_recover,
    }


def build_report(runs: dict[str, dict]) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "runs": runs,
    }


def check_regression(report: dict, committed: dict, factor: float) -> bool:
    """CI gate: sqlite write throughput must stay above baseline/factor.

    Each executed grid is compared against the committed run of the *same*
    grid (the committed artifact carries every grid, so smoke gates against
    smoke).  Throughput rather than wall time, and a wide default factor,
    absorb CI-runner disk and CPU variance.
    """
    ok = True
    for grid, record in report["runs"].items():
        baseline_run = committed["runs"].get(grid)
        if baseline_run is None:
            print(f"no committed baseline for grid '{grid}', skipped", file=sys.stderr)
            continue
        current = record["sqlite_write"]["blocks_per_s"]
        baseline = baseline_run["sqlite_write"]["blocks_per_s"]
        floor = baseline / factor
        grid_ok = current >= floor
        ok = ok and grid_ok
        verdict = "OK" if grid_ok else "REGRESSION"
        print(
            f"[{grid}] sqlite write {current:.1f} blocks/s vs committed "
            f"{baseline:.1f} (floor {floor:.1f}, factor {factor}x): {verdict}",
            file=sys.stderr,
        )
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--grid", choices=[*sorted(GRIDS), "all"], default="standard"
    )
    parser.add_argument("--out", type=str, default=None, help="write report JSON here")
    parser.add_argument(
        "--check",
        type=str,
        default=None,
        help="committed report to gate against (CI regression check)",
    )
    parser.add_argument(
        "--check-factor",
        type=float,
        default=DEFAULT_REGRESSION_FACTOR,
        help="allowed throughput drop vs the committed baseline",
    )
    args = parser.parse_args(argv)

    selected = sorted(GRIDS) if args.grid == "all" else [args.grid]
    runs: dict[str, dict] = {}
    for grid in selected:
        with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
            runs[grid] = run_grid(grid, GRIDS[grid], Path(tmp))
    report = build_report(runs)

    if args.out is not None:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)

    if args.check is not None:
        committed = json.loads(Path(args.check).read_text())
        if not check_regression(report, committed, args.check_factor):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

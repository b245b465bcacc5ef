"""SQLite chain storage: the explorer-grade durable backend.

Stdlib ``sqlite3`` in WAL mode, so one writer (the node) and many readers
(explorer worker threads, other processes) coexist without blocking each
other.  The write path is batched: :meth:`SqliteStorage.record_block`
buffers in memory and :meth:`SqliteStorage.commit` lands the whole batch
in a single transaction — one fsync per head advance instead of one per
block, which is what the ``benchmarks/bench_storage.py`` throughput gate
measures.

Schema (see ``docs/storage.md`` for the full matrix):

* ``blocks`` — every block ever attached, in reception order (``seq``),
  with the canonical serialized bytes; indexed by height and producer.
* ``txs`` — one row per transaction per containing block, carrying the
  block's height; indexed by ``(sender, height, position)`` and
  ``(recipient, height, position)``, so an account's newest transactions
  are the tail of an index range and a ``/accounts`` page reads one page
  of rows, not the account's whole history.
* ``canon`` — the main chain as a height → block-id map, updated
  incrementally on commit (O(reorg depth), not O(height)); indexed by
  block id for the produced-blocks count.
* ``meta`` — genesis binding, stored head, member set, generation
  counter.

The ``blocks`` rows are the node's one durable record of its tree:
:meth:`SqliteStorage.recover` replays them in ``seq`` order, with their
stored arrival times, into a fresh :class:`~repro.chain.blocktree.BlockTree`.
Block and transaction rows are never dropped (archival store).

This is schema v3 (:data:`SCHEMA_VERSION`).  v2 also kept periodic
full-tree dumps in a table of their own and indexed ``txs`` by block id
alone; v1 had no ``txs.height`` and sender / recipient indexes on the
address alone.  A file of another version is refused at open, before
anything is written to it.  There is no migration: a node rebuilds its
store by syncing from its peers into a fresh file.

Storage is **off by default**: a node writes here only through the write
policy :meth:`~repro.consensus.powfamily.MiningNode.attach_storage`
subscribes to its observers, and simulated runs never construct a store.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.chain.block import Block
from repro.chain.blocktree import BlockTree
from repro.errors import StorageError

#: Schema version stamped into ``meta``; mismatches refuse to open.
SCHEMA_VERSION = 3

_META = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS blocks (
    seq          INTEGER PRIMARY KEY,
    block_id     BLOB NOT NULL UNIQUE,
    parent_id    BLOB NOT NULL,
    height       INTEGER NOT NULL,
    epoch        INTEGER NOT NULL,
    producer     BLOB NOT NULL,
    timestamp    REAL NOT NULL,
    arrival_time REAL NOT NULL,
    tx_count     INTEGER NOT NULL,
    data         BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS blocks_height ON blocks(height);
CREATE INDEX IF NOT EXISTS blocks_producer ON blocks(producer);
CREATE TABLE IF NOT EXISTS txs (
    tx_id     BLOB NOT NULL,
    block_id  BLOB NOT NULL,
    height    INTEGER NOT NULL,
    position  INTEGER NOT NULL,
    sender    BLOB NOT NULL,
    recipient BLOB NOT NULL,
    amount    INTEGER NOT NULL,
    nonce     INTEGER NOT NULL,
    PRIMARY KEY (tx_id, block_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS txs_sender ON txs(sender, height, position);
CREATE INDEX IF NOT EXISTS txs_recipient ON txs(recipient, height, position);
CREATE INDEX IF NOT EXISTS txs_block ON txs(block_id, position);
CREATE TABLE IF NOT EXISTS canon (
    height   INTEGER PRIMARY KEY,
    block_id BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS canon_block ON canon(block_id);
"""


class SqliteStorage:
    """Durable chain storage over one SQLite database file.

    Serves both the node's write/recovery side (record, commit, recover)
    and the explorer's read side (indexed lookups plus the generation
    counter).  Open ``read_only=True`` for the explorer process so it can
    never take the writer lock.

    Args:
        path: database file location (parents created as needed).
        batch_size: commits also fire automatically once this many blocks
            are buffered, bounding data loss between head advances.
        read_only: open the database for the read tier only.
        snapshot_interval: accepted and ignored; it goes once
            ``benchmarks/spine/store_workload.py`` stops passing it.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        batch_size: int = 64,
        read_only: bool = False,
        snapshot_interval: int | None = None,
    ) -> None:
        if batch_size < 1:
            raise StorageError("batch_size must be >= 1")
        self.path = Path(path)
        self.batch_size = batch_size
        self.read_only = read_only
        self._pending: list[tuple[Block, float]] = []
        self._head_hex: str | None = None
        if read_only:
            if not self.path.exists():
                raise StorageError(f"no chain database at {self.path}")
            self._conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, check_same_thread=False
            )
            self._conn.execute("PRAGMA busy_timeout=2000")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
            self._conn.execute("PRAGMA busy_timeout=2000")
            with self._conn:
                self._conn.execute(_META)
        try:
            self._check_schema_version()
        except BaseException:
            self._conn.close()
            raise
        if not read_only:
            # Only a file of this version is switched to WAL and given
            # tables: a refused file is left byte for byte as it was.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            with self._conn:
                self._conn.executescript(_SCHEMA)
        self._closed = False

    # -- meta helpers --------------------------------------------------------------

    def _meta_get(self, key: str) -> str | None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else str(row[0])

    def _meta_set(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    def _check_schema_version(self) -> None:
        """Refuse a file of another schema version before touching its
        tables; stamp a new writable file with this one."""
        stored = self._meta_get("schema_version")
        if stored is None:
            if self.read_only:
                return
            with self._conn:
                self._meta_set("schema_version", str(SCHEMA_VERSION))
                self._meta_set("generation", "0")
        elif int(stored) != SCHEMA_VERSION:
            raise StorageError(
                f"chain database {self.path} has schema v{stored}, "
                f"this build speaks v{SCHEMA_VERSION}"
            )

    # -- write + recovery (the node's side) ----------------------------------------

    def ensure_genesis(self, genesis: Block) -> None:
        """Bind the store to a genesis block; refuse a foreign one."""
        self._assert_writable()
        stored = self._meta_get("genesis_id")
        if stored is None:
            with self._conn:
                self._meta_set("genesis_id", genesis.block_id.hex())
                self._insert_blocks(
                    [(genesis, genesis.header.timestamp)]
                )
                self._conn.execute(
                    "INSERT OR REPLACE INTO canon (height, block_id) VALUES (0, ?)",
                    (genesis.block_id,),
                )
        elif stored != genesis.block_id.hex():
            raise StorageError(
                f"chain database {self.path} belongs to genesis {stored[:12]}, "
                f"not {genesis.block_id.hex()[:12]}"
            )

    def set_members(self, members: Sequence[bytes]) -> None:
        """Record the consortium member set for the equality read path."""
        self._assert_writable()
        with self._conn:
            self._meta_set("members", json.dumps([m.hex() for m in members]))

    def record_block(self, block: Block, arrival_time: float) -> None:
        """Buffer one block; durable at the next :meth:`commit`.

        A node calls it in the order blocks enter its tree, after §III
        admission (a buffered orphan when its parent arrives); the order is
        durable so recovery reconstructs GEOST's first-received tie-break
        state exactly.
        """
        self._assert_writable()
        self._pending.append((block, arrival_time))

    def commit(self, head_id: bytes, tree: BlockTree, *, force: bool = False) -> None:
        """Land the buffered batch and the new head in one transaction.

        ``tree`` is the node's live block tree: the store walks its parent
        links to re-point ``canon`` without keeping its own copy.
        ``force`` also lands a no-op commit (the shutdown path).
        """
        self._assert_writable()
        head_hex = head_id.hex()
        if not force and not self._pending and head_hex == self._head_hex:
            return
        with self._conn:
            self._insert_blocks(self._pending)
            self._pending.clear()
            self._update_canon(head_id, tree)
            self._meta_set("head_id", head_hex)
            self._bump_generation()
            self._head_hex = head_hex

    def should_commit(self) -> bool:
        """True once the buffered batch hit ``batch_size``."""
        return len(self._pending) >= self.batch_size

    def _insert_blocks(self, batch: list[tuple[Block, float]]) -> None:
        if not batch:
            return
        block_rows = []
        tx_rows = []
        for block, arrival in batch:
            block_rows.append(
                (
                    block.block_id,
                    block.parent_hash,
                    block.height,
                    block.header.epoch,
                    block.producer,
                    block.header.timestamp,
                    arrival,
                    len(block.transactions),
                    block.to_bytes(),
                )
            )
            for position, tx in enumerate(block.transactions):
                tx_rows.append(
                    (
                        tx.tx_id,
                        block.block_id,
                        block.height,
                        position,
                        tx.sender,
                        tx.recipient,
                        tx.amount,
                        tx.nonce,
                    )
                )
        self._conn.executemany(
            "INSERT OR IGNORE INTO blocks (block_id, parent_id, height, epoch, "
            "producer, timestamp, arrival_time, tx_count, data) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            block_rows,
        )
        if tx_rows:
            self._conn.executemany(
                "INSERT OR IGNORE INTO txs (tx_id, block_id, height, position, "
                "sender, recipient, amount, nonce) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                tx_rows,
            )

    def _update_canon(self, head_id: bytes, tree: BlockTree) -> None:
        """Incrementally re-point the height → id map at the new head.

        Walks down from the head only until the stored row already
        matches — O(new blocks + reorg depth) per commit.
        """
        head_height = tree.get(head_id).height
        self._conn.execute("DELETE FROM canon WHERE height > ?", (head_height,))
        cursor: bytes | None = head_id
        updates: list[tuple[int, bytes]] = []
        while cursor is not None:
            block = tree.get(cursor)
            row = self._conn.execute(
                "SELECT block_id FROM canon WHERE height = ?", (block.height,)
            ).fetchone()
            if row is not None and bytes(row[0]) == cursor:
                break
            updates.append((block.height, cursor))
            cursor = tree.parent(cursor)
        if updates:
            self._conn.executemany(
                "INSERT OR REPLACE INTO canon (height, block_id) VALUES (?, ?)",
                updates,
            )

    def _bump_generation(self) -> None:
        current = int(self._meta_get("generation") or "0")
        self._meta_set("generation", str(current + 1))

    def block_row_count(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM blocks").fetchone()
        return int(row[0])

    def recover(self, finality_window: int | None = 32) -> BlockTree | None:
        """Rebuild the tree by replaying every block row in ``seq`` order.

        Rows were recorded in the order blocks entered the node's tree, each
        after its parent, so the replay reproduces insertion order, arrival
        times, children order and subtree statistics.  Returns ``None`` for
        an empty store.
        """
        rows = self._conn.execute(
            "SELECT data, arrival_time FROM blocks ORDER BY seq"
        )
        first = rows.fetchone()
        if first is None:
            return None
        tree = BlockTree(Block.from_bytes(bytes(first[0])), finality_window=finality_window)
        for data, arrival in rows:
            tree.add_block(Block.from_bytes(bytes(data)), float(arrival))
        return tree

    def close(self) -> None:
        """Checkpoint the WAL back into the main file and release handles."""
        if self._closed:
            return
        if not self.read_only:
            if self._pending:
                raise StorageError(
                    f"{len(self._pending)} recorded blocks were never committed; "
                    "commit(force=True) before close()"
                )
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self._conn.close()
        self._closed = True

    def _assert_writable(self) -> None:
        if self.read_only:
            raise StorageError("storage opened read-only")
        if self._closed:
            raise StorageError("storage already closed")

    # -- the explorer's read tier ----------------------------------------------------

    def generation(self) -> int:
        """Commit counter; response caches invalidate when it moves.

        An entry computed at generation g is served until the store reports
        g+1, which is exactly when new chain state became visible.
        """
        return int(self._meta_get("generation") or "0")

    def members(self) -> list[bytes]:
        """The consortium member set recorded by :meth:`set_members`."""
        raw = self._meta_get("members")
        if raw is None:
            return []
        return [bytes.fromhex(h) for h in json.loads(raw)]

    def _canonical_id_at(self, height: int) -> bytes | None:
        row = self._conn.execute(
            "SELECT block_id FROM canon WHERE height = ?", (height,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def _is_canonical(self, block_id: bytes, height: int) -> bool:
        return self._canonical_id_at(height) == block_id

    def _block_record(
        self, row: sqlite3.Row | tuple, canonical: bool | None = None
    ) -> dict[str, Any]:
        """A block row as JSON-ready fields; ``canonical`` is looked up in
        ``canon`` unless the caller already knows it."""
        (block_id, parent_id, height, epoch, producer, timestamp, arrival, tx_count) = (
            bytes(row[0]),
            bytes(row[1]),
            int(row[2]),
            int(row[3]),
            bytes(row[4]),
            float(row[5]),
            float(row[6]),
            int(row[7]),
        )
        return {
            "block_id": block_id.hex(),
            "parent_id": parent_id.hex(),
            "height": height,
            "epoch": epoch,
            "producer": producer.hex(),
            "timestamp": timestamp,
            "arrival_time": arrival,
            "tx_count": tx_count,
            "canonical": (
                self._is_canonical(block_id, height) if canonical is None else canonical
            ),
        }

    _BLOCK_COLS = (
        "block_id, parent_id, height, epoch, producer, timestamp, "
        "arrival_time, tx_count"
    )

    def head(self) -> dict[str, Any] | None:
        head_hex = self._meta_get("head_id")
        if head_hex is None:
            return None
        return self.block_by_id(bytes.fromhex(head_hex))

    def tip_height(self) -> int:
        """Height of the stored main-chain tip (-1 for an empty store)."""
        row = self._conn.execute("SELECT MAX(height) FROM canon").fetchone()
        return int(row[0]) if row and row[0] is not None else -1

    def block_by_id(
        self, block_id: bytes, canonical: bool | None = None
    ) -> dict[str, Any] | None:
        row = self._conn.execute(
            f"SELECT {self._BLOCK_COLS} FROM blocks WHERE block_id = ?",  # noqa: S608
            (block_id,),
        ).fetchone()
        if row is None:
            return None
        record = self._block_record(row, canonical)
        tx_ids = self._conn.execute(
            "SELECT tx_id FROM txs WHERE block_id = ? ORDER BY position",
            (block_id,),
        ).fetchall()
        record["tx_ids"] = [bytes(r[0]).hex() for r in tx_ids]
        return record

    def block_by_height(self, height: int) -> dict[str, Any] | None:
        """The *main-chain* block at a height, or ``None``."""
        block_id = self._canonical_id_at(height)
        if block_id is None:
            return None
        return self.block_by_id(block_id, canonical=True)

    def blocks_page(self, start: int | None, limit: int) -> list[dict[str, Any]]:
        """Main-chain blocks from ``start`` (default: tip) downward."""
        tip = self.tip_height()
        if tip < 0:
            return []
        top = tip if start is None else min(start, tip)
        qualified = ", ".join(
            f"blocks.{col.strip()}" for col in self._BLOCK_COLS.split(",")
        )
        rows = self._conn.execute(
            f"SELECT {qualified} FROM blocks "  # noqa: S608
            "JOIN canon USING (block_id) "
            "WHERE canon.height <= ? ORDER BY canon.height DESC LIMIT ?",
            (top, limit),
        ).fetchall()
        return [self._block_record(row, canonical=True) for row in rows]

    def tx_by_id(self, tx_id: bytes) -> dict[str, Any] | None:
        row = self._conn.execute(
            "SELECT block_id, height, position, sender, recipient, amount, nonce "
            "FROM txs WHERE tx_id = ?",
            (tx_id,),
        ).fetchone()
        if row is None:
            return None
        block_id, height = bytes(row[0]), int(row[1])
        return {
            "tx_id": tx_id.hex(),
            "block_id": block_id.hex(),
            "position": int(row[2]),
            "sender": bytes(row[3]).hex(),
            "recipient": bytes(row[4]).hex(),
            "amount": int(row[5]),
            "nonce": int(row[6]),
            "height": height,
            "canonical": self._is_canonical(block_id, height),
        }

    def account_summary(self, address: bytes, limit: int) -> dict[str, Any] | None:
        """Counts and the ``limit`` newest transactions touching ``address``.

        Newest first: height, then position, descending; the rare tie — one
        slot of two fork blocks at one height — falls to ``tx_id`` then
        ``block_id``, descending, the suffix every ``txs`` index entry
        carries, so each index serves the whole order.  The page is a merge
        of the sender and the recipient index ranges read from their newest
        end; the merge stops after ``limit`` rows, so the work is one page
        however long the history, and the ``UNION`` lists a self-transfer
        once.
        """
        sent = int(
            self._conn.execute(
                "SELECT COUNT(*) FROM txs WHERE sender = ?", (address,)
            ).fetchone()[0]
        )
        received = int(
            self._conn.execute(
                "SELECT COUNT(*) FROM txs WHERE recipient = ?", (address,)
            ).fetchone()[0]
        )
        produced = int(
            self._conn.execute(
                "SELECT COUNT(*) FROM blocks JOIN canon USING (block_id) "
                "WHERE producer = ?",
                (address,),
            ).fetchone()[0]
        )
        if sent == 0 and received == 0 and produced == 0 and (
            address not in self.members()
        ):
            return None
        rows = self._conn.execute(
            "SELECT height, position, tx_id, block_id FROM txs WHERE sender = ? "
            "UNION SELECT height, position, tx_id, block_id FROM txs WHERE recipient = ? "
            "ORDER BY height DESC, position DESC, tx_id DESC, block_id DESC LIMIT ?",
            (address, address, limit),
        ).fetchall()
        return {
            "address": address.hex(),
            "sent": sent,
            "received": received,
            "blocks_produced": produced,
            "recent_tx_ids": [bytes(r[2]).hex() for r in rows],
        }

    def producer_counts(self) -> dict[bytes, int]:
        """Blocks per producer over the stored main chain."""
        rows = self._conn.execute(
            "SELECT producer, COUNT(*) FROM canon CROSS JOIN blocks USING (block_id) "
            "WHERE canon.height > 0 GROUP BY producer"
        ).fetchall()
        return {bytes(producer): int(count) for producer, count in rows}

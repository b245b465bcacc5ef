"""Tests for the durable chain-storage backends (repro.storage)."""

from __future__ import annotations

import itertools
import random
import sqlite3
from collections import Counter
from collections.abc import Callable, Iterator
from pathlib import Path

import pytest

from tests.conftest import TreeBuilder, keypair
from repro.chain.block import Block, build_block
from repro.chain.blocktree import BlockTree
from repro.chain.transaction import Transaction
from repro.errors import StorageError
from repro.storage.sqlite import SCHEMA_VERSION, SqliteStorage


@pytest.fixture()
def built(genesis: Block) -> TreeBuilder:
    builder = TreeBuilder(genesis)
    builder.chain(genesis, [0, 1, 2, 0, 1, 2, 0, 1])
    return builder


def fill(storage: SqliteStorage, builder: TreeBuilder) -> None:
    tree = builder.tree
    storage.ensure_genesis(builder.genesis)
    for block in tree.iter_blocks():
        if block.height > 0:
            storage.record_block(block, tree.arrival_time(block.block_id))
    storage.commit(tree.iter_blocks().__next__().block_id, tree)


class TestSqliteWriteAndRecover:
    def test_round_trip_preserves_tree(self, tmp_path: Path, built: TreeBuilder) -> None:
        tree = built.tree
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(built.genesis)
        for block in tree.iter_blocks():
            if block.height > 0:
                storage.record_block(block, tree.arrival_time(block.block_id))
        head = max(tree.iter_blocks(), key=lambda b: b.height)
        storage.commit(head.block_id, tree)
        storage.close()

        reopened = SqliteStorage(tmp_path / "chain.db")
        recovered = reopened.recover()
        assert recovered is not None
        assert recovered.max_height() == tree.max_height()
        original = [b.block_id for b in tree.iter_blocks()]
        assert [b.block_id for b in recovered.iter_blocks()] == original
        for block_id in original:
            assert recovered.arrival_time(block_id) == tree.arrival_time(block_id)
        reopened.close()

    def test_commit_is_batched_and_bumps_generation(
        self, tmp_path: Path, built: TreeBuilder
    ) -> None:
        tree = built.tree
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(built.genesis)
        blocks = [b for b in tree.iter_blocks() if b.height > 0]
        for block in blocks:
            storage.record_block(block, tree.arrival_time(block.block_id))
        assert storage.block_row_count() == 1  # only genesis durable so far
        before = storage.generation()
        storage.commit(blocks[-1].block_id, tree)
        assert storage.block_row_count() == 1 + len(blocks)
        assert storage.generation() == before + 1
        storage.close()

    def test_noop_commit_does_not_bump_generation(
        self, tmp_path: Path, built: TreeBuilder
    ) -> None:
        tree = built.tree
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(built.genesis)
        blocks = [b for b in tree.iter_blocks() if b.height > 0]
        for block in blocks:
            storage.record_block(block, tree.arrival_time(block.block_id))
        storage.commit(blocks[-1].block_id, tree)
        generation = storage.generation()
        storage.commit(blocks[-1].block_id, tree)  # nothing new
        assert storage.generation() == generation
        storage.close()

    def test_recover_empty_store_returns_none(self, tmp_path: Path) -> None:
        storage = SqliteStorage(tmp_path / "chain.db")
        assert storage.recover() is None
        storage.close()

    def test_recover_replays_rows_to_the_tip(
        self, tmp_path: Path, genesis: Block
    ) -> None:
        """Rows landed by two commits replay into one tree up to the tip."""
        builder = TreeBuilder(genesis)
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(genesis)
        parent = genesis
        for batch in (4, 3):
            for index in range(batch):
                parent = builder.extend(parent, index % 3)
                storage.record_block(parent, builder.tree.arrival_time(parent.block_id))
            storage.commit(parent.block_id, builder.tree)
        recovered = storage.recover()
        assert recovered is not None
        assert recovered.max_height() == 7
        assert [b.block_id for b in recovered.iter_blocks()] == [
            b.block_id for b in builder.tree.iter_blocks()
        ]
        storage.close()

    def test_recover_keeps_blocks_that_were_orphans_at_a_commit(
        self, tmp_path: Path, genesis: Block
    ) -> None:
        """A block buffered while a commit lands is recorded when its parent
        arrives, after it, and recovery places it under that parent."""
        source = TreeBuilder(genesis)
        a = source.extend(genesis, 0)
        b = source.extend(a, 1)
        c = source.extend(b, 2)
        d = source.extend(a, 2)
        live = BlockTree(genesis)
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(genesis)
        for block in (a, c, d):  # c arrives before its parent b
            live.add_block(block, source.tree.arrival_time(block.block_id))
        for block in (a, d):  # recorded as admitted: c waits for b
            storage.record_block(block, source.tree.arrival_time(block.block_id))
        storage.commit(d.block_id, live)
        assert live.orphan_count == 1
        live.add_block(b, source.tree.arrival_time(b.block_id))
        for block in (b, c):
            storage.record_block(block, source.tree.arrival_time(block.block_id))
        storage.commit(c.block_id, live)
        recovered = storage.recover()
        assert recovered is not None
        assert len(recovered) == len(live) == 5
        assert recovered.has_block(c.block_id)
        storage.close()

    def test_rows_are_never_dropped(self, tmp_path: Path, genesis: Block) -> None:
        builder = TreeBuilder(genesis)
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(genesis)
        parent = genesis
        for _ in range(10):
            parent = builder.extend(parent, 0)
            storage.record_block(parent, builder.tree.arrival_time(parent.block_id))
            storage.commit(parent.block_id, builder.tree)
        assert storage.block_row_count() == 11
        for height in range(11):
            record = storage.block_by_height(height)
            assert record is not None and record["height"] == height
        recovered = storage.recover()
        assert recovered is not None
        assert recovered.max_height() == 10
        storage.close()

    def test_reorg_rewrites_canonical_index(self, tmp_path: Path, genesis: Block) -> None:
        builder = TreeBuilder(genesis)
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(genesis)
        a1 = builder.extend(genesis, 0)
        a2 = builder.extend(a1, 0)
        for block in (a1, a2):
            storage.record_block(block, builder.tree.arrival_time(block.block_id))
        storage.commit(a2.block_id, builder.tree)
        assert storage.block_by_height(2)["block_id"] == a2.block_id.hex()
        # Competing fork from genesis overtakes the original chain.
        b1 = builder.extend(genesis, 1)
        b2 = builder.extend(b1, 1)
        b3 = builder.extend(b2, 1)
        for block in (b1, b2, b3):
            storage.record_block(block, builder.tree.arrival_time(block.block_id))
        storage.commit(b3.block_id, builder.tree)
        assert storage.tip_height() == 3
        assert storage.block_by_height(1)["block_id"] == b1.block_id.hex()
        assert storage.block_by_height(2)["block_id"] == b2.block_id.hex()
        record = storage.block_by_id(a2.block_id)
        assert record is not None and record["canonical"] is False
        storage.close()

    def test_close_checkpoints_wal(self, tmp_path: Path, built: TreeBuilder) -> None:
        db = tmp_path / "chain.db"
        storage = SqliteStorage(db)
        fill(storage, built)
        storage.close()
        assert not (tmp_path / "chain.db-wal").exists()
        assert not (tmp_path / "chain.db-shm").exists()

    def test_close_refuses_to_drop_uncommitted_blocks(
        self, tmp_path: Path, built: TreeBuilder
    ) -> None:
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(built.genesis)
        block = next(b for b in built.tree.iter_blocks() if b.height == 1)
        storage.record_block(block, 1.0)
        with pytest.raises(StorageError, match="never committed"):
            storage.close()
        storage.commit(block.block_id, built.tree, force=True)
        storage.close()


class TestSqliteGuards:
    def test_foreign_genesis_is_refused(self, tmp_path: Path, genesis: Block) -> None:
        storage = SqliteStorage(tmp_path / "chain.db")
        storage.ensure_genesis(genesis)
        storage.close()
        other = TreeBuilder(genesis).extend(genesis, 0)
        reopened = SqliteStorage(tmp_path / "chain.db")
        with pytest.raises(StorageError, match="genesis"):
            reopened.ensure_genesis(other)
        reopened.close()

    def test_future_schema_version_is_refused(self, tmp_path: Path) -> None:
        db = tmp_path / "chain.db"
        SqliteStorage(db).close()
        conn = sqlite3.connect(db)
        with conn:
            conn.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
        conn.close()
        with pytest.raises(StorageError, match="schema"):
            SqliteStorage(db)

    def test_version_1_file_is_refused_untouched(self, tmp_path: Path) -> None:
        """A file in the v1 layout (no ``txs.height``, address-only indexes)
        is refused at open by writer and reader alike, before the v3 schema
        script adds anything to it."""
        assert_refused_untouched(
            tmp_path / "chain.db",
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "INSERT INTO meta VALUES ('schema_version', '1'), ('generation', '0');"
            "CREATE TABLE txs (tx_id BLOB NOT NULL, block_id BLOB NOT NULL, "
            "position INTEGER NOT NULL, sender BLOB NOT NULL, "
            "recipient BLOB NOT NULL, amount INTEGER NOT NULL, "
            "nonce INTEGER NOT NULL, PRIMARY KEY (tx_id, block_id)) WITHOUT ROWID;"
            "CREATE INDEX txs_sender ON txs(sender);"
            "CREATE TABLE canon (height INTEGER PRIMARY KEY, block_id BLOB NOT NULL);",
            version=1,
        )

    def test_version_2_file_is_refused_untouched(self, tmp_path: Path) -> None:
        """A v2 file (a WAL database with a ``snapshots`` table and
        ``txs_block`` on the block id alone) is refused by writer and
        reader alike and stays byte for byte as it was."""
        assert_refused_untouched(
            tmp_path / "chain.db",
            "PRAGMA journal_mode=WAL;"
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "INSERT INTO meta VALUES ('schema_version', '2'), ('generation', '0');"
            "CREATE TABLE txs (tx_id BLOB NOT NULL, block_id BLOB NOT NULL, "
            "height INTEGER NOT NULL, position INTEGER NOT NULL, "
            "sender BLOB NOT NULL, recipient BLOB NOT NULL, amount INTEGER NOT NULL, "
            "nonce INTEGER NOT NULL, PRIMARY KEY (tx_id, block_id)) WITHOUT ROWID;"
            "CREATE INDEX txs_block ON txs(block_id);"
            "CREATE TABLE canon (height INTEGER PRIMARY KEY, block_id BLOB NOT NULL);"
            "CREATE TABLE snapshots (snap_seq INTEGER PRIMARY KEY, "
            "height INTEGER NOT NULL, generation INTEGER NOT NULL, data BLOB NOT NULL);",
            version=2,
        )

    def test_read_only_rejects_writes_and_missing_file(
        self, tmp_path: Path, genesis: Block
    ) -> None:
        with pytest.raises(StorageError, match="no chain database"):
            SqliteStorage(tmp_path / "absent.db", read_only=True)
        db = tmp_path / "chain.db"
        writer = SqliteStorage(db)
        writer.ensure_genesis(genesis)
        writer.close()
        reader = SqliteStorage(db, read_only=True)
        with pytest.raises(StorageError, match="read-only"):
            reader.ensure_genesis(genesis)
        reader.close()

    def test_invalid_policy_parameters(self, tmp_path: Path) -> None:
        with pytest.raises(StorageError):
            SqliteStorage(tmp_path / "a.db", batch_size=0)

    def test_snapshot_interval_is_accepted_and_ignored(self, tmp_path: Path) -> None:
        """The placeholder keyword the spine's storage workload still passes."""
        storage = SqliteStorage(tmp_path / "chain.db", batch_size=16, snapshot_interval=0)
        assert not hasattr(storage, "snapshot_interval")
        storage.close()


def assert_refused_untouched(db: Path, script: str, *, version: int) -> None:
    """Write a file of an older schema with ``script``, then check that the
    writer and the reader both refuse it and that its bytes do not move."""
    conn = sqlite3.connect(db)
    conn.executescript(script)
    conn.close()
    before = db.read_bytes()
    assert SCHEMA_VERSION == 3
    with pytest.raises(StorageError, match=f"schema v{version}, this build speaks v3"):
        SqliteStorage(db)
    with pytest.raises(StorageError, match=f"schema v{version}"):
        SqliteStorage(db, read_only=True)
    assert db.read_bytes() == before


#: Page size of the account store's differential checks.
LIMIT = 4
BUSY = [bytes([index]) * 20 for index in range(1, 5)]
SELF = b"\x51" * 20
EXACT = b"\x52" * 20  # exactly LIMIT transaction rows
OVER = b"\x53" * 20  # LIMIT + 1 rows
IDLE_MEMBER = b"\x54" * 20
STRANGER = b"\x55" * 20


class AccountStore:
    """A stored tree whose transactions exercise every ordering edge of
    ``account_summary``: fork blocks carrying transactions (one repeats the
    main block's list slot for slot, one carries its own), a self-transfer,
    an idle member and addresses with ``LIMIT`` and ``LIMIT + 1`` rows."""

    def __init__(self, path: Path, genesis: Block) -> None:
        rng = random.Random(11)
        nonces = itertools.count()

        def tx(sender: bytes, recipient: bytes) -> Transaction:
            return Transaction(sender, recipient, rng.randrange(1, 100), next(nonces))

        def busy_txs(count: int) -> list[Transaction]:
            return [tx(rng.choice(BUSY), rng.choice(BUSY)) for _ in range(count)]

        special = {
            2: [tx(EXACT, BUSY[0]), tx(OVER, BUSY[1])],
            5: [tx(SELF, SELF), tx(BUSY[2], OVER)],
            7: [tx(BUSY[3], EXACT), tx(OVER, BUSY[0])],
            9: [tx(EXACT, OVER)],
        }
        self.tree = BlockTree(genesis)
        self.blocks = [genesis]
        main = [genesis]
        for height in range(1, 13):
            txs = busy_txs(4)
            for offset, extra in enumerate(special.get(height, [])):
                txs.insert(1 + 2 * offset, extra)
            main.append(self._add(main[-1], height % 3, txs))
        same_slots = self._add(main[3], 2, list(main[4].transactions))
        self._add(same_slots, 1, [*busy_txs(2), tx(EXACT, BUSY[1])])
        self._add(main[3], 0, [*busy_txs(4), tx(BUSY[3], OVER)])
        self._add(main[9], 1, [tx(BUSY[0], SELF), *busy_txs(3)])
        self.members = [keypair(i).public.fingerprint() for i in range(3)] + [IDLE_MEMBER]
        self.canonical = set(b.block_id for b in main)
        self.storage = SqliteStorage(path)
        self.storage.ensure_genesis(genesis)
        self.storage.set_members(self.members)
        for block in self.blocks[1:]:
            self.storage.record_block(block, self.tree.arrival_time(block.block_id))
        self.storage.commit(main[-1].block_id, self.tree)

    def _add(self, parent: Block, producer: int, txs: list[Transaction]) -> Block:
        clock = float(len(self.blocks))
        block = build_block(
            keypair(producer), parent.block_id, parent.height + 1, txs, clock, 1.0, 1.0, 0
        )
        self.tree.add_block(block, clock)
        self.blocks.append(block)
        return block

    def rows(self, address: bytes) -> list[tuple[int, int, bytes, bytes, Transaction]]:
        """Every stored ``(height, position, tx_id, block_id, tx)`` touching
        ``address``, forks included."""
        return [
            (block.height, position, tx.tx_id, block.block_id, tx)
            for block in self.blocks
            for position, tx in enumerate(block.transactions)
            if address in (tx.sender, tx.recipient)
        ]

    def reference(self, address: bytes, limit: int) -> dict | None:
        """``account_summary`` by brute force: newest first by height, then
        position, then ``tx_id``, then ``block_id``, all descending."""
        rows = self.rows(address)
        sent = sum(tx.sender == address for *_, tx in rows)
        received = sum(tx.recipient == address for *_, tx in rows)
        produced = sum(
            b.producer == address for b in self.blocks if b.block_id in self.canonical
        )
        if not (sent or received or produced) and address not in self.members:
            return None
        newest = sorted((row[:4] for row in rows), reverse=True)[:limit]
        return {
            "address": address.hex(),
            "sent": sent,
            "received": received,
            "blocks_produced": produced,
            "recent_tx_ids": [tx_id.hex() for _, _, tx_id, _ in newest],
        }


@pytest.fixture()
def accounts(tmp_path: Path, genesis: Block) -> Iterator[AccountStore]:
    store = AccountStore(tmp_path / "accounts.db", genesis)
    yield store
    store.storage.close()


def traced(storage: SqliteStorage, read: Callable[[], object]) -> list[str]:
    """Every statement ``read`` runs on ``storage``, with its parameters bound."""
    statements: list[str] = []
    storage._conn.set_trace_callback(statements.append)
    try:
        read()
    finally:
        storage._conn.set_trace_callback(None)
    return statements


def query_plan(storage: SqliteStorage, sql: str) -> str:
    return " | ".join(row[3] for row in storage._conn.execute("EXPLAIN QUERY PLAN " + sql))


def recent_statement(storage: SqliteStorage, address: bytes, limit: int) -> tuple[list[str], str]:
    """Every statement ``account_summary`` runs, with its parameters bound,
    and the one among them that pages the transactions."""
    statements = traced(storage, lambda: storage.account_summary(address, limit))
    (recent,) = [sql for sql in statements if "LIMIT" in sql]
    return statements, recent


class TestAccountReads:
    def test_fixture_covers_the_ordering_edges(self, accounts: AccountStore) -> None:
        assert len(accounts.rows(EXACT)) == LIMIT
        assert len(accounts.rows(OVER)) == LIMIT + 1
        assert any(tx.sender == tx.recipient == SELF for *_, tx in accounts.rows(SELF))
        assert accounts.rows(IDLE_MEMBER) == []
        fork_rows = [
            row
            for address in BUSY
            for row in accounts.rows(address)
            if row[3] not in accounts.canonical
        ]
        assert fork_rows
        slots: dict[tuple[int, int], set[bytes]] = {}
        for height, position, tx_id, _, _ in (r for a in BUSY for r in accounts.rows(a)):
            slots.setdefault((height, position), set()).add(tx_id)
        tied = [ids for ids in slots.values() if len(ids) > 1]
        assert tied, "two fork blocks carry different transactions in one slot"
        assert any(
            len([r for r in accounts.rows(BUSY[0]) if r[:2] == row[:2]]) > 1
            for row in accounts.rows(BUSY[0])
        ), "one slot repeats on a fork"

    @pytest.mark.parametrize("limit", [1, LIMIT, LIMIT + 1, 50])
    def test_summary_matches_brute_force(self, accounts: AccountStore, limit: int) -> None:
        addresses = [*BUSY, SELF, EXACT, OVER, IDLE_MEMBER, STRANGER, *accounts.members]
        for address in addresses:
            assert accounts.storage.account_summary(address, limit) == accounts.reference(
                address, limit
            ), address.hex()

    def test_query_plans_read_index_ranges(self, accounts: AccountStore) -> None:
        """Host-independent: no statement of ``account_summary`` sorts in a
        temporary b-tree or scans ``canon`` (at schema v1 the page sorted
        every hit of the address and the produced count scanned ``canon``),
        and ``producer_counts`` (``/metrics/equality``) walks ``canon`` into
        ``blocks`` (it scanned every stored block, forks included)."""
        statements, _ = recent_statement(accounts.storage, BUSY[0], LIMIT)
        for sql in statements:
            plan = query_plan(accounts.storage, sql)
            assert "TEMP B-TREE" not in plan, (sql, plan)
            assert "SCAN canon" not in plan, (sql, plan)
        (counts,) = traced(accounts.storage, accounts.storage.producer_counts)
        plan = query_plan(accounts.storage, counts)
        assert "SCAN blocks" not in plan, (counts, plan)

    def test_producer_counts_count_the_main_chain(self, accounts: AccountStore) -> None:
        main = [b for b in accounts.blocks[1:] if b.block_id in accounts.canonical]
        assert accounts.storage.producer_counts() == Counter(b.producer for b in main)

    def test_block_by_height_reads_canon_once(self, accounts: AccountStore) -> None:
        """``/blocks/<height>`` takes ``canonical`` from its one ``canon``
        lookup (a second lookup of the same height made four statements)."""
        storage = accounts.storage
        statements = traced(storage, lambda: storage.block_by_height(5))
        assert ["FROM canon" in sql for sql in statements] == [True, False, False]
        record = storage.block_by_height(5)
        assert (record["height"], record["canonical"]) == (5, True)

    def test_block_tx_ids_read_a_covering_index(self, accounts: AccountStore) -> None:
        """``/blocks/<id>`` lists its transaction ids in position order
        straight off ``txs_block(block_id, position)`` (at schema v2 the index
        held the block id alone and the list sorted in a temporary b-tree)."""
        storage = accounts.storage
        block = accounts.blocks[5]
        statements = traced(storage, lambda: storage.block_by_id(block.block_id))
        (tx_ids,) = [sql for sql in statements if "FROM txs" in sql]
        plan = query_plan(storage, tx_ids)
        assert "COVERING INDEX txs_block" in plan, plan
        assert "TEMP B-TREE" not in plan, plan
        record = storage.block_by_id(block.block_id)
        assert record["tx_ids"] == [tx.tx_id.hex() for tx in block.transactions]

    def test_page_work_follows_the_page_not_the_history(
        self, accounts: AccountStore
    ) -> None:
        """Virtual-machine steps of the paging statement, counted by a progress
        handler: one row costs a fraction of the whole history, and an
        address with no rows costs less than one row."""

        def steps(address: bytes, limit: int) -> int:
            _, sql = recent_statement(accounts.storage, address, limit)
            count = 0

            def tick() -> int:
                nonlocal count
                count += 1
                return 0

            accounts.storage._conn.set_progress_handler(tick, 1)
            try:
                accounts.storage._conn.execute(sql).fetchall()
            finally:
                accounts.storage._conn.set_progress_handler(None, 1)
            return count

        history = len(accounts.rows(BUSY[0]))
        assert history >= 20
        assert 4 * steps(BUSY[0], 1) < steps(BUSY[0], history)
        assert steps(IDLE_MEMBER, LIMIT) < steps(BUSY[0], 1)

"""``store_explore``: sqlite ingest, cold recovery, and the explorer beside a writer.

Three phases over one generated linear chain (8 producers, 20 unsigned
transactions per block — the shape of ``benchmarks/bench_storage.py``):

1. *ingest* — ``record_block`` + ``commit`` in batches of 16, a snapshot
   every 500 heights, into a tree that grows with the store (as a node's
   does);
2. *recover* — five cold read-only opens + ``recover()``;
3. *explore* — closed loop, **one** client on **one** persistent HTTP/1.1
   connection, a seeded request mix, while the same thread appends 16
   blocks and commits once per second.  The write cadence is time-based,
   so the write share does not change when reads get faster.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import TYPE_CHECKING, Any

from repro.chain.block import BLOCK_VERSION, Block, BlockHeader
from repro.chain.blocktree import BlockTree
from repro.chain.genesis import make_genesis
from repro.chain.transaction import Transaction
from repro.crypto.merkle import merkle_root_of_payloads
from repro.explorer import start_explorer
from repro.storage.sqlite import SqliteStorage

from benchmarks.spine import stats
from benchmarks.spine.common import Outcome, scratch_dir, span

if TYPE_CHECKING:
    from benchmarks.spine.trace import Tracer

PRODUCERS = 8
TXS_PER_BLOCK = 20
BATCH_SIZE = 16
SNAPSHOT_INTERVAL = 500
COLD_OPENS = 5
SETUP_REPEATS = 3

#: Sizes per second of ``--seconds`` (3 000 blocks, 2 600 ingested and a
#: 12 s explore phase at the nominal 20 s).
CHAIN_BLOCKS_PER_S = 150
INGEST_BLOCKS_PER_S = 130
EXPLORE_SHARE = 0.6

#: Explore phase: one write burst of this many blocks every second.
WRITE_BURST = 16
WRITE_PERIOD_S = 1.0

#: Request mix, cumulative shares.
MIX = (
    (0.20, "head"),
    (0.45, "block"),
    (0.60, "page"),
    (0.85, "tx"),
    (0.97, "account"),
    (1.00, "equality"),
)

#: Request draws hashed into ``inputs_digest`` (the mix itself is unbounded).
DIGEST_DRAWS = 2_000

#: Boundaries a traced run wraps from the start, and those it wraps part-way
#: through the explore phase (the untraced first part gives the overhead).
WRITE_SIDE = ("storage.sqlite.record_block", "storage.sqlite.commit", "storage.sqlite.recover")
READ_SIDE = ("storage.sqlite.read", "explorer.http.respond", "explorer.service.route")
UNTRACED_SHARE = 0.25


def _address(i: int) -> bytes:
    return i.to_bytes(4, "big") * 5


def build_chain(seed: int, blocks: int) -> list[Block]:
    """The generated chain, heights 1..blocks, parents linked in order."""
    rng = random.Random(seed)
    parent = make_genesis().block_id
    chain = []
    for height in range(1, blocks + 1):
        txs = tuple(
            Transaction(
                sender=_address(height % PRODUCERS),
                recipient=_address(rng.randrange(PRODUCERS)),
                amount=rng.randrange(1, 1_000),
                nonce=height * TXS_PER_BLOCK + position,
            )
            for position in range(TXS_PER_BLOCK)
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
            epoch=height // SNAPSHOT_INTERVAL,
            nonce=height,
        )
        block = Block(header, None, txs)
        chain.append(block)
        parent = block.block_id
    return chain


def request_draws(seed: int):
    """The endless seeded stream of ``(kind, u, position)`` request draws."""
    rng = random.Random(seed ^ 0x5EED)
    while True:
        roll = rng.random()
        kind = next(name for share, name in MIX if roll < share)
        yield kind, rng.random(), rng.randrange(TXS_PER_BLOCK)


def request_path(kind: str, u: float, position: int, chain: list[Block], tip: int) -> str:
    """Turn one draw into a URL against a store whose tip is ``tip``.

    Heights are skewed towards the tip: ``tip - tip*u**3``.
    """
    height = max(1, tip - int(tip * u**3))
    if kind == "head":
        return "/chain/head"
    if kind == "block":
        return f"/blocks/{height}"
    if kind == "page":
        return f"/blocks?limit=20&start={height}"
    if kind == "tx":
        return f"/txs/{chain[height - 1].transactions[position].tx_id.hex()}"
    if kind == "account":
        return f"/accounts/{_address(position % PRODUCERS).hex()}"
    return "/metrics/equality"


class _Writer:
    """Records blocks into the store and a tree that grows with it."""

    def __init__(self, storage: SqliteStorage, chain: list[Block]) -> None:
        self.storage = storage
        self.chain = chain
        genesis = make_genesis()
        self.tree = BlockTree(genesis)
        self.height = 0
        storage.ensure_genesis(genesis)
        storage.set_members([_address(i) for i in range(PRODUCERS)])

    def append(self, count: int, *, force: bool) -> None:
        """Record the next ``count`` blocks; commit per batch, and at the end
        when ``force``."""
        last = None
        for block in self.chain[self.height : self.height + count]:
            self.tree.add_block(block, float(block.height))
            self.storage.record_block(block, float(block.height))
            if self.storage.should_commit():
                self.storage.commit(block.block_id, self.tree)
            last = block
        self.height = min(self.height + count, len(self.chain))
        if force and last is not None:
            self.storage.commit(last.block_id, self.tree, force=True)

    @property
    def head_id(self) -> bytes:
        return self.chain[self.height - 1].block_id


def _check_reply(path: str, status: int, body: bytes, chain: list[Block]) -> bool:
    """200 bodies parse and name the generated object; 304 bodies are empty."""
    if status == 304:
        return body == b""
    if status != 200:
        return False
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    if path.startswith("/blocks/"):
        height = int(path.rsplit("/", 1)[1])
        return payload.get("block_id") == chain[height - 1].block_id.hex()
    if path.startswith("/txs/"):
        return payload.get("tx_id") == path.rsplit("/", 1)[1]
    return isinstance(payload, dict)


def _explore(
    chain: list[Block],
    writer: _Writer,
    port: int,
    seed: int,
    duration: float,
    tracer: Tracer | None,
) -> dict[str, Any]:
    """The closed loop.  On traced runs the read side is wrapped only after
    the first ``UNTRACED_SHARE`` of the phase, which gives the overhead pair."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    draws = request_draws(seed)
    latencies: list[float] = []
    finished_at: list[float] = []
    failed = status_304 = 0
    writer_s = 0.0
    previous: tuple[str, str] | None = None  # (path, etag)
    switch_at: float | None = None
    switch_index, switch_writer_s = 0, 0.0
    start = time.perf_counter()
    next_write = start + WRITE_PERIOD_S
    try:
        while True:
            now = time.perf_counter()
            if now - start >= duration:
                break
            if tracer is not None and switch_at is None and now - start >= (
                UNTRACED_SHARE * duration
            ):
                tracer.install(READ_SIDE)
                switch_at, switch_index, switch_writer_s = now, len(latencies), writer_s
            if now >= next_write and writer.height < len(chain):
                with span(tracer, "bench.writer"):
                    writer.append(WRITE_BURST, force=True)
                writer_s += time.perf_counter() - now
                next_write += WRITE_PERIOD_S
                continue
            headers = {}
            if previous is not None and (len(latencies) + 1) % 5 == 0:
                path, headers["If-None-Match"] = previous
            else:
                path = request_path(*next(draws), chain, writer.height)
            with span(tracer, "bench.client"):
                sent = time.perf_counter()
                conn.request("GET", path, headers=headers)
                response = conn.getresponse()
                body = response.read()
                done = time.perf_counter()
            latencies.append(done - sent)
            finished_at.append(done)
            status_304 += response.status == 304
            if not _check_reply(path, response.status, body, chain):
                failed += 1
            previous = (path, response.headers.get("ETag", ""))
    finally:
        conn.close()
    end = time.perf_counter()
    windows = []
    edge, count = start + 1.0, 0
    for done in finished_at:
        while done >= edge:
            windows.append(float(count))
            edge, count = edge + 1.0, 0
        count += 1
    result = {
        "latencies": latencies,
        "failed": failed,
        "status_304": status_304,
        "req_per_s": len(latencies) / (end - start - writer_s),
        "window_rates": windows or [float(len(latencies))],
        "wall_s": end - start,
    }
    if switch_at is not None:
        before = (switch_at - start - switch_writer_s) / max(1, switch_index)
        after = (end - switch_at - (writer_s - switch_writer_s)) / max(
            1, len(latencies) - switch_index
        )
        result["overhead_pair"] = (before, after)
        result["traced_from"] = switch_index
    return result


def run(seed: int, seconds: float, tracer: Tracer | None, quick: bool = False) -> Outcome:
    """Run ``store_explore`` once; every size scales with ``seconds``, so
    ``quick`` needs nothing further."""
    del quick
    out = Outcome()
    blocks = max(64, int(CHAIN_BLOCKS_PER_S * seconds))
    ingest = max(32, int(INGEST_BLOCKS_PER_S * seconds))
    explore_s = EXPLORE_SHARE * seconds

    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        chain = build_chain(seed, blocks)
        out.setup_samples.append(time.perf_counter() - begin)
    draws = request_draws(seed)
    out.inputs_digest = stats.digest(
        [tx.tx_id for block in chain for tx in block.transactions]
        + [repr(next(draws)) for _ in range(DIGEST_DRAWS)]
    )

    with scratch_dir() as workdir:
        db = workdir / "chain.db"
        storage = SqliteStorage(db, batch_size=BATCH_SIZE, snapshot_interval=SNAPSHOT_INTERVAL)
        writer = _Writer(storage, chain)

        if tracer is not None:
            tracer.keep("explorer.http.respond", "storage.sqlite.commit")
            tracer.install(WRITE_SIDE)
        begin = time.perf_counter()
        with span(tracer, "bench.ingest"):
            writer.append(ingest, force=True)
        ingest_s = time.perf_counter() - begin

        recover_s = []
        recovered_head = b""
        for _ in range(COLD_OPENS):
            begin = time.perf_counter()
            with span(tracer, "bench.recover"):
                reader = SqliteStorage(db, read_only=True)
                tree = reader.recover()
            recover_s.append(time.perf_counter() - begin)
            reader.close()
            if tree is not None:
                recovered_head = tree.blocks_at_height(tree.max_height())[0]
        out.checks["recovered_head_is_written_head"] = recovered_head == writer.head_id

        reader = SqliteStorage(db, read_only=True)
        server, thread = start_explorer(reader)
        try:
            explored = _explore(
                chain, writer, server.server_address[1], seed, explore_s, tracer
            )
        finally:
            server.shutdown()
            thread.join()
            server.server_close()
            reader.close()
            if tracer is not None:
                tracer.uninstall()
        out.checks["stored_head_is_written_head"] = (
            storage.head() or {}
        ).get("block_id") == writer.head_id.hex()
        storage.close()
        db_bytes = db.stat().st_size

    latencies_ms = [1000.0 * value for value in explored["latencies"]]
    out.attempted = len(latencies_ms)
    out.failed = explored["failed"]
    out.checks["every_reply_correct"] = explored["failed"] == 0
    out.timed_s = ingest_s + sum(recover_s) + explored["wall_s"]
    out.metrics = {
        "store_ingest_blocks_per_s": stats.metric("blocks/s", "higher", [ingest / ingest_s]),
        "store_recover_s": stats.metric("s", "lower", recover_s),
        "explorer_req_per_s": stats.metric(
            "req/s", "higher", explored["window_rates"], value=explored["req_per_s"]
        ),
        "explorer_p50_ms": stats.metric("ms", "lower", latencies_ms),
    }
    if tracer is not None:
        traced_ms = latencies_ms[explored["traced_from"] :]
        responds_ms = [1000.0 * value for value in tracer.durations["explorer.http.respond"]]
        transfer = [
            client - server_side
            for client, server_side in zip(traced_ms, responds_ms, strict=False)
        ]
        commits = tracer.durations["storage.sqlite.commit"]
        cache = server.cache
        tail_pct, tail_ms = stats.tail(latencies_ms)
        # Server-thread spans overlap the client's wait, so the self times
        # add up to the timed wall plus the server's share of it.
        out.traced_wall_s = out.timed_s
        out.overhead_pair = explored["overhead_pair"]
        out.layer = {
            "storage.ingest_blocks_per_s": ingest / ingest_s,
            "storage.recover_p50_s": stats.quartiles(recover_s)[1],
            "storage.sqlite.commit_max_ms": 1000.0 * max(commits, default=0.0),
            "storage.db_bytes": float(db_bytes),
            "explorer.p50_ms": stats.quartiles(latencies_ms)[1],
            "explorer.cache.hit_ratio": cache.hits / max(1, cache.hits + cache.misses),
            "explorer.transfer_p50_ms": stats.quartiles(transfer)[1] if transfer else 0.0,
            "explorer.tail_ms": tail_ms,
            "explorer.tail_pct": tail_pct,
            "explorer.status_304": float(explored["status_304"]),
        }
    return out

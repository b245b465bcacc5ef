"""The durable chain-storage contract.

A consortium deployment is dominated by *readers* — auditors, member
organizations and end users querying blocks, transactions and the paper's
per-node equality metrics — while the consensus nodes themselves must
survive restarts without re-executing the ledger from genesis.  Two
protocols split those concerns:

* :class:`ChainStorage` is the **write/recovery** side a node drives:
  blocks are recorded as they attach to the local tree, batched, and made
  durable on :meth:`ChainStorage.commit`; :meth:`ChainStorage.recover`
  rebuilds the block tree from the latest snapshot plus the incremental
  rows above it, so a restart replays hours of history from disk instead
  of pulling it block by block from peers.
* :class:`ChainReader` is the **read tier** the explorer serves from:
  indexed lookups (block by id or height, transaction by id or account,
  per-producer statistics) plus a monotonically increasing generation
  counter that response caches key invalidation on.

Both protocols are ``runtime_checkable`` like the transport contracts in
:mod:`repro.net.transport`, so backends are verified structurally in
tests rather than by inheritance.  The backend is
:class:`~repro.storage.sqlite.SqliteStorage` (stdlib ``sqlite3``, WAL
mode, incremental batched writes); a portable single-file dump of a tree
is :func:`repro.chain.store.save_tree` / ``load_tree``, whose byte format
sqlite snapshots reuse.

Simulated runs never construct a backend: storage is **off by default**
and every hook in the node is ``None``-guarded, which is what keeps the
golden parity hashes of ``tests/test_transport_parity.py`` unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Protocol, runtime_checkable

from repro.chain.block import Block
from repro.chain.blocktree import BlockTree


@runtime_checkable
class ChainStorage(Protocol):
    """What a node needs from a persistence backend (write + recovery)."""

    def ensure_genesis(self, genesis: Block) -> None:
        """Bind the store to a genesis block (idempotent).

        A store created against one genesis must refuse to operate on
        another — mixing two deployments' data in one database corrupts
        both.
        """
        ...

    def set_members(self, members: Sequence[bytes]) -> None:
        """Record the consortium member set (for the equality read tier)."""
        ...

    def record_block(self, block: Block, arrival_time: float) -> None:
        """Buffer one attached (or orphan-buffered) block for persistence.

        Called in local reception order; the order is durable so recovery
        reconstructs GEOST's first-received tie-break state exactly.
        """
        ...

    def commit(self, head_id: bytes, tree: BlockTree, *, force: bool = False) -> None:
        """Flush buffered blocks durably and advance the stored head.

        ``tree`` is the node's live block tree — backends use it for
        parent walks and periodic full snapshots without keeping their
        own copy.  ``force`` also flushes when the batch or snapshot
        policy would otherwise wait (shutdown path).
        """
        ...

    def recover(self, finality_window: int | None = 32) -> BlockTree | None:
        """Rebuild the block tree from disk, or ``None`` for an empty store.

        Recovery loads the newest full snapshot and replays only the
        incremental blocks recorded after it — never from genesis once a
        snapshot exists.
        """
        ...

    def close(self) -> None:
        """Release file handles; leave no journal/WAL turds behind."""
        ...


@runtime_checkable
class ChainReader(Protocol):
    """What the explorer needs from a backend (the heavy read path)."""

    def generation(self) -> int:
        """Monotonic commit counter; bumps whenever stored state changes.

        Response caches key on this: an entry computed at generation g
        is served until the store reports g+1, which is exactly when new
        chain state became visible.
        """
        ...

    def head(self) -> dict[str, Any] | None:
        """The stored main-chain tip as a JSON-ready record."""
        ...

    def block_by_id(self, block_id: bytes) -> dict[str, Any] | None:
        """One block (with its transaction ids), or ``None``."""
        ...

    def block_by_height(self, height: int) -> dict[str, Any] | None:
        """The *main-chain* block at a height, or ``None``."""
        ...

    def blocks_page(self, start: int | None, limit: int) -> list[dict[str, Any]]:
        """Main-chain blocks from ``start`` (default: tip) downward."""
        ...

    def tx_by_id(self, tx_id: bytes) -> dict[str, Any] | None:
        """One transaction with its containing block, or ``None``."""
        ...

    def account_summary(self, address: bytes, limit: int) -> dict[str, Any] | None:
        """Sent/received counts and recent transactions for an address."""
        ...

    def producer_counts(self) -> dict[bytes, int]:
        """Blocks per producer over the stored main chain."""
        ...

    def members(self) -> list[bytes]:
        """The consortium member set recorded by :meth:`ChainStorage.set_members`."""
        ...

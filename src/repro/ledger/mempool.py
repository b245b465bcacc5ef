"""Transaction pool.

§III: during node election "the node selects some transactions from the
transaction pool upon its preferences, and stores them into block body in
order".  The mempool therefore supports pluggable selection preference — FIFO
by default, with an optional priority function — plus the bookkeeping every
node needs: deduplication, removal of committed transactions on main-chain
advance, and re-admission of transactions orphaned by a reorg.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable

from repro.chain.transaction import Transaction

#: Orders candidate transactions; higher values are selected first.
PreferenceFn = Callable[[Transaction], float]


class Mempool:
    """An ordered, deduplicating transaction pool.

    Attributes:
        capacity: maximum resident transactions; the oldest are evicted first
            when full (simulations keep pools bounded so memory stays flat).
    """

    def __init__(self, capacity: int = 100_000) -> None:
        self._txs: "OrderedDict[bytes, Transaction]" = OrderedDict()
        self._arrival: dict[bytes, int] = {}
        self._next_arrival = 0
        self.capacity = capacity

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, tx_id: bytes) -> bool:
        return tx_id in self._txs

    def get(self, tx_id: bytes) -> Transaction | None:
        """The resident transaction with this id, if any."""
        return self._txs.get(tx_id)

    @property
    def total_bytes(self) -> int:
        """Total serialized size of resident transactions."""
        return sum(tx.size for tx in self._txs.values())

    def add(self, tx: Transaction) -> bool:
        """Admit a transaction; returns ``False`` for duplicates."""
        tx_id = tx.tx_id
        if tx_id in self._txs:
            return False
        if len(self._txs) >= self.capacity:
            evicted_id, _ = self._txs.popitem(last=False)
            self._arrival.pop(evicted_id, None)
        self._txs[tx_id] = tx
        self._arrival[tx_id] = self._next_arrival
        self._next_arrival += 1
        return True

    def add_all(self, txs: Iterable[Transaction]) -> int:
        """Admit many transactions; returns the number actually added.

        Also how transactions from blocks evicted by a reorg come back: they
        rejoin at the back of the arrival order — a real node cannot
        reconstruct their original positions after the fact.
        """
        return sum(1 for tx in txs if self.add(tx))

    def select(
        self,
        max_count: int,
        max_bytes: int | None = None,
        preference: PreferenceFn | None = None,
    ) -> list[Transaction]:
        """Pick transactions for a block body "upon preferences" (§III).

        Default preference is FIFO arrival order.  A custom ``preference``
        function reorders candidates (ties broken by arrival) — this is how a
        node models the paper's observation that "different consensus nodes
        ... may have a certain preference for the order of transaction
        execution".  Selected transactions stay in the pool until
        :meth:`remove` is called (they are not final until on the main chain).
        """
        if preference is None:
            candidates = list(self._txs.values())
        else:
            candidates = sorted(
                self._txs.values(),
                key=lambda tx: (-preference(tx), self._arrival[tx.tx_id]),
            )
        if max_bytes is None:
            return candidates[:max_count]
        picked: list[Transaction] = []
        budget = max_bytes
        for tx in candidates:
            if len(picked) >= max_count:
                break
            if tx.size > budget:
                continue
            picked.append(tx)
            budget -= tx.size
        return picked

    def remove(self, tx_ids: Iterable[bytes]) -> int:
        """Drop committed transactions; returns the number removed."""
        removed = 0
        for tx_id in tx_ids:
            if self._txs.pop(tx_id, None) is not None:
                self._arrival.pop(tx_id, None)
                removed += 1
        return removed

    def clear(self) -> None:
        """Drop everything."""
        self._txs.clear()
        self._arrival.clear()

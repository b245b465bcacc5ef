"""Tests for the transaction pool."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.chain.transaction import Transaction
from repro.ledger.mempool import Mempool

from tests.conftest import keypair


def addr(i: int) -> bytes:
    return keypair(i).public.fingerprint()


def tx(nonce: int, sender: int = 0, amount: int = 1) -> Transaction:
    """Unsigned test transaction (the pool doesn't validate signatures)."""
    return Transaction(addr(sender), addr(1), amount, nonce)


class TestAdmission:
    def test_add_and_contains(self):
        pool = Mempool()
        t = tx(0)
        assert pool.add(t)
        assert t.tx_id in pool
        assert len(pool) == 1

    def test_duplicates_rejected(self):
        pool = Mempool()
        t = tx(0)
        assert pool.add(t)
        assert not pool.add(t)
        assert len(pool) == 1

    def test_add_all_counts(self):
        pool = Mempool()
        assert pool.add_all([tx(0), tx(1), tx(0)]) == 2

    def test_capacity_evicts_oldest(self):
        pool = Mempool(capacity=2)
        t0, t1, t2 = tx(0), tx(1), tx(2)
        pool.add(t0)
        pool.add(t1)
        pool.add(t2)
        assert len(pool) == 2
        assert t0.tx_id not in pool
        assert t2.tx_id in pool

    def test_total_bytes(self):
        pool = Mempool()
        t = tx(0)
        pool.add(t)
        assert pool.total_bytes == t.size


class TestSelection:
    def test_fifo_default(self):
        pool = Mempool()
        txs = [tx(i) for i in range(5)]
        pool.add_all(txs)
        assert pool.select(3) == txs[:3]

    def test_max_bytes_budget(self):
        pool = Mempool()
        txs = [tx(i) for i in range(3)]
        pool.add_all(txs)
        budget = txs[0].size + txs[1].size
        assert pool.select(10, max_bytes=budget) == txs[:2]

    def test_preference_reorders(self):
        """§III: nodes select transactions 'upon preferences'."""
        pool = Mempool()
        txs = [tx(i, amount=i + 1) for i in range(3)]
        pool.add_all(txs)
        picked = pool.select(3, preference=lambda t: t.amount)
        assert picked == list(reversed(txs))

    def test_preference_ties_fall_back_to_arrival(self):
        pool = Mempool()
        txs = [tx(i) for i in range(3)]
        pool.add_all(txs)
        assert pool.select(3, preference=lambda t: 0.0) == txs

    def test_selection_does_not_remove(self):
        pool = Mempool()
        pool.add(tx(0))
        pool.select(1)
        assert len(pool) == 1


class TestRemoval:
    def test_remove_committed(self):
        pool = Mempool()
        txs = [tx(i) for i in range(3)]
        pool.add_all(txs)
        removed = pool.remove([txs[0].tx_id, txs[2].tx_id, b"\x00" * 32])
        assert removed == 2
        assert len(pool) == 1

    def test_readmit_after_reorg(self):
        pool = Mempool()
        t = tx(0)
        pool.add(t)
        pool.remove([t.tx_id])
        assert pool.add_all([t]) == 1
        assert t.tx_id in pool

    def test_clear(self):
        pool = Mempool()
        pool.add_all([tx(i) for i in range(3)])
        pool.clear()
        assert len(pool) == 0


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=40))
    def test_no_duplicates_ever(self, nonces):
        pool = Mempool()
        for nonce in nonces:
            pool.add(tx(nonce))
        assert len(pool) == len(set(nonces))
        selected = pool.select(100)
        assert len({t.tx_id for t in selected}) == len(selected)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=10),
    )
    def test_select_respects_count(self, nonces, max_count):
        pool = Mempool()
        for nonce in set(nonces):
            pool.add(tx(nonce))
        assert len(pool.select(max_count)) == min(max_count, len(pool))

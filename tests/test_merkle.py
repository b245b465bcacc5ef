"""Tests for Merkle trees."""

from __future__ import annotations

import pytest

from repro.crypto.hashing import sha256d
from repro.crypto.merkle import EMPTY_ROOT, merkle_root, merkle_root_of_payloads
from repro.errors import ChainError


def _leaves(count: int) -> list[bytes]:
    return [sha256d(bytes([i])) for i in range(count)]


class TestRoot:
    def test_empty_root(self):
        assert merkle_root([]) == EMPTY_ROOT

    def test_single_leaf_is_itself(self):
        leaf = sha256d(b"tx")
        assert merkle_root([leaf]) == leaf

    def test_two_leaves(self):
        a, b = _leaves(2)
        assert merkle_root([a, b]) == sha256d(a + b)

    def test_odd_duplicates_last(self):
        a, b, c = _leaves(3)
        expected = sha256d(sha256d(a + b) + sha256d(c + c))
        assert merkle_root([a, b, c]) == expected

    def test_order_sensitivity(self):
        a, b = _leaves(2)
        assert merkle_root([a, b]) != merkle_root([b, a])

    def test_bad_leaf_size_rejected(self):
        with pytest.raises(ChainError):
            merkle_root([b"short"])

    def test_payload_helper_hashes_first(self):
        payloads = [b"tx1", b"tx2"]
        assert merkle_root_of_payloads(payloads) == merkle_root(
            [sha256d(p) for p in payloads]
        )

"""Merkle trees over transaction payloads.

Block headers commit to their transaction list through a Merkle root, exactly
as in Bitcoin: leaves are double-SHA-256 of the serialized transactions, odd
levels duplicate the last node, and the root of an empty list is 32 zero
bytes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.crypto.hashing import sha256d
from repro.errors import ChainError

#: Root of the empty tree.
EMPTY_ROOT = b"\x00" * 32


def _pair_hash(left: bytes, right: bytes) -> bytes:
    return sha256d(left + right)


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Compute the Merkle root of pre-hashed 32-byte leaves."""
    if not leaves:
        return EMPTY_ROOT
    level = list(leaves)
    for leaf in level:
        if len(leaf) != 32:
            raise ChainError("merkle leaves must be 32-byte digests")
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [_pair_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def merkle_root_of_payloads(payloads: Iterable[bytes]) -> bytes:
    """Hash raw payloads into leaves, then compute the root."""
    return merkle_root([sha256d(p) for p in payloads])


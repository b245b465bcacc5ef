"""Blocks: headers, bodies, hashing and signing.

A Themis block header carries, beyond the Bitcoin-style fields, the producer's
identity and the difficulty parameters under which the puzzle was solved
(§III: receivers check "whether the difficulty and the hash value of the block
header are correct according to the latest difficulty table in its local
storage").  The header is signed by the producer (§III), and the signature is
carried next to the header rather than inside it so the puzzle hash does not
depend on the signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from collections.abc import Sequence

from repro.chain.codec import Reader, Writer
from repro.chain.transaction import Transaction
from repro.crypto.hashing import sha256d
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import merkle_root
from repro.crypto.signature import SIGNATURE_SIZE, Signature, sign_digest
from repro.errors import InvalidBlockError

#: Header format version.
BLOCK_VERSION = 1


@dataclass(frozen=True)
class BlockHeader:
    """Immutable block header.

    Attributes:
        version: header format version.
        height: distance from genesis (genesis is height 0).
        parent_hash: 32-byte hash of the parent header.
        merkle_root: Merkle root over the body's transactions.
        timestamp: simulated wall-clock seconds at production time.
        producer: 20-byte fingerprint of the producing node's public key.
        difficulty_multiple: the producer's multiple ``m_i^e`` (§IV-A).
        base_difficulty: the epoch's basic difficulty ``D_base^e`` (§IV-B).
        epoch: difficulty-adjustment epoch index ``e``.
        nonce: PoW nonce (ground by the real miner; stamped by the oracle).
    """

    version: int
    height: int
    parent_hash: bytes
    merkle_root: bytes
    timestamp: float
    producer: bytes
    difficulty_multiple: float
    base_difficulty: float
    epoch: int
    nonce: int = 0

    def __post_init__(self) -> None:
        if len(self.parent_hash) != 32:
            raise InvalidBlockError("parent_hash must be 32 bytes")
        if len(self.merkle_root) != 32:
            raise InvalidBlockError("merkle_root must be 32 bytes")
        if len(self.producer) != 20:
            raise InvalidBlockError("producer must be a 20-byte fingerprint")
        if self.height < 0:
            raise InvalidBlockError("height must be non-negative")
        # An infinite declared value lies within any relative tolerance of any
        # table's (§III check 2), so only finite values are well-formed.
        if not (math.isfinite(self.difficulty_multiple) and self.difficulty_multiple >= 1.0):
            raise InvalidBlockError("difficulty multiple must be finite and >= 1 (Eq. 6)")
        if not (math.isfinite(self.base_difficulty) and self.base_difficulty >= 1.0):
            raise InvalidBlockError("base difficulty must be finite and >= 1 (§IV-B)")

    @property
    def difficulty(self) -> float:
        """Total puzzle difficulty ``D_i^e = m_i^e * D_base^e`` (§IV-B)."""
        return self.difficulty_multiple * self.base_difficulty

    def to_bytes(self) -> bytes:
        """Serialize the header (the exact bytes that are hashed)."""
        writer = Writer()
        writer.write_varint(self.version)
        writer.write_varint(self.height)
        writer.write_bytes_raw(self.parent_hash)
        writer.write_bytes_raw(self.merkle_root)
        writer.write_float(self.timestamp)
        writer.write_bytes_raw(self.producer)
        writer.write_float(self.difficulty_multiple)
        writer.write_float(self.base_difficulty)
        writer.write_varint(self.epoch)
        writer.write_varint(self.nonce)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BlockHeader":
        reader = Reader(data)
        header = cls._read(reader)
        reader.expect_end()
        return header

    @classmethod
    def _read(cls, reader: Reader) -> "BlockHeader":
        return cls(
            version=reader.read_varint(),
            height=reader.read_varint(),
            parent_hash=reader.read_bytes_raw(32),
            merkle_root=reader.read_bytes_raw(32),
            timestamp=reader.read_float(),
            producer=reader.read_bytes_raw(20),
            difficulty_multiple=reader.read_float(),
            base_difficulty=reader.read_float(),
            epoch=reader.read_varint(),
            nonce=reader.read_varint(),
        )

    def hash(self) -> bytes:
        """Double-SHA-256 of the serialized header (the PoW pre-image)."""
        return sha256d(self.to_bytes())

    def with_nonce(self, nonce: int) -> "BlockHeader":
        """Return a copy with a different nonce (mining iteration)."""
        return replace(self, nonce=nonce)


@dataclass(frozen=True)
class Block:
    """A full block: header, producer signature, and transaction body."""

    header: BlockHeader
    signature: Signature | None
    transactions: tuple[Transaction, ...] = ()

    @cached_property
    def block_id(self) -> bytes:
        """Block identifier: the header hash."""
        return self.header.hash()

    @property
    def height(self) -> int:
        return self.header.height

    @property
    def producer(self) -> bytes:
        return self.header.producer

    @property
    def parent_hash(self) -> bytes:
        return self.header.parent_hash

    def to_bytes(self) -> bytes:
        """Serialize header + signature + transactions."""
        writer = Writer()
        writer.write_bytes(self.header.to_bytes())
        if self.signature is None:
            writer.write_bool(False)
        else:
            writer.write_bool(True)
            writer.write_bytes_raw(self.signature.to_bytes())
        writer.write_varint(len(self.transactions))
        for tx in self.transactions:
            writer.write_bytes(tx.to_bytes())
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, *, hash_ids: bool = False) -> "Block":
        """Decode ``data``; ``hash_ids`` as in :meth:`Transaction.from_bytes`."""
        reader = Reader(data)
        header = BlockHeader.from_bytes(reader.read_bytes())
        signature = None
        if reader.read_bool():
            signature = Signature.from_bytes(reader.read_bytes_raw(SIGNATURE_SIZE))
        count = reader.read_varint()
        txs = tuple(
            Transaction.from_bytes(reader.read_bytes(), hash_ids=hash_ids) for _ in range(count)
        )
        reader.expect_end()
        return cls(header, signature, txs)

    @property
    def size(self) -> int:
        """Serialized size in bytes (what gossip charges for)."""
        return len(self.to_bytes())

    def verify_merkle_root(self) -> bool:
        """Check the header's Merkle root commits to the body."""
        expected = merkle_root([tx.tx_id for tx in self.transactions])
        return expected == self.header.merkle_root

    def verify_signature(self) -> bool:
        """Check the producer's signature over the header hash (§III).

        Computed once per (frozen) instance, like :attr:`block_id`.
        """
        return self._signature_ok

    @cached_property
    def _signature_ok(self) -> bool:
        if self.signature is None:
            return False
        if self.signature.public_key.fingerprint() != self.header.producer:
            return False
        return self.signature.verify(self.header.hash())


def build_block(
    keypair: KeyPair,
    parent_hash: bytes,
    height: int,
    transactions: Sequence[Transaction],
    timestamp: float,
    difficulty_multiple: float,
    base_difficulty: float,
    epoch: int,
    nonce: int = 0,
) -> Block:
    """Assemble and sign a block for the given parent and transaction list."""
    header = BlockHeader(
        version=BLOCK_VERSION,
        height=height,
        parent_hash=parent_hash,
        merkle_root=merkle_root([tx.tx_id for tx in transactions]),
        timestamp=timestamp,
        producer=keypair.public.fingerprint(),
        difficulty_multiple=difficulty_multiple,
        base_difficulty=base_difficulty,
        epoch=epoch,
        nonce=nonce,
    )
    signature = sign_digest(keypair, header.hash())
    return Block(header, signature, tuple(transactions))


def sign_block(keypair: KeyPair, header: BlockHeader, transactions: Sequence[Transaction]) -> Block:
    """Sign a finished (mined) header and bundle it with its body."""
    if keypair.public.fingerprint() != header.producer:
        raise InvalidBlockError("signer fingerprint != header producer")
    signature = sign_digest(keypair, header.hash())
    return Block(header, signature, tuple(transactions))

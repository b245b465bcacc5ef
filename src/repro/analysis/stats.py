"""Storage and communication overhead accounting (§VI-C)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.signature import SIGNATURE_SIZE
from repro.errors import SimulationError


@dataclass(frozen=True)
class StorageOverhead:
    """§VI-C storage accounting for the Themis difficulty bookkeeping."""

    n: int
    epochs: int

    #: float multiple m_i^e (4 bytes) + int count q_i^e (4 bytes), per node.
    BYTES_PER_NODE_PER_EPOCH = 8

    @property
    def total_bytes(self) -> int:
        """Extra network-wide storage after ``epochs`` epochs: ``8·n`` each."""
        return self.BYTES_PER_NODE_PER_EPOCH * self.n * self.epochs

    def per_epoch_bytes(self) -> int:
        return self.BYTES_PER_NODE_PER_EPOCH * self.n

    def relative_to_block(self, avg_block_bytes: int) -> float:
        """Per-epoch overhead as a fraction of one average block (§VI-C
        argues this is negligible against MB-scale blocks)."""
        if avg_block_bytes <= 0:
            raise SimulationError("block size must be positive")
        return self.per_epoch_bytes() / avg_block_bytes


@dataclass(frozen=True)
class CommunicationOverhead:
    """§VI-C communication accounting: the per-block signature envelope."""

    blocks: int

    @property
    def signature_bytes_per_block(self) -> int:
        """The envelope Themis adds to each block vs. plain PoW.

        Our ECDSA envelope is 97 bytes raw; the paper budgets "about 128
        Bytes" for the framed signature — both far below average block sizes.
        """
        return SIGNATURE_SIZE

    @property
    def total_bytes(self) -> int:
        return self.signature_bytes_per_block * self.blocks

    def relative_to_block(self, avg_block_bytes: int) -> float:
        if avg_block_bytes <= 0:
            raise SimulationError("block size must be positive")
        return self.signature_bytes_per_block / avg_block_bytes


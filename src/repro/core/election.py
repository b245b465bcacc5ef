"""Node election phase: candidate construction and block validation (§III).

Production side — :class:`BlockBuilder` initializes the candidate header for
the current round with the node's current difficulty parameters over the
body the node chose (drawing it from a mempool "upon preferences" is the
data plane's job, :meth:`repro.node.node.FullNode._select_transactions`).

Reception side — :class:`BlockValidator` runs the paper's three checks in
order: (1) "whether the block header signature belongs to the node in the
consensus node set"; (2) "whether the difficulty and the hash value of the
block header are correct according to the latest difficulty table in its
local storage"; (3) transaction validity, which is delegated to the ledger
executor by the caller because it needs chain state.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.chain.block import BLOCK_VERSION, Block, BlockHeader
from repro.chain.transaction import Transaction
from repro.core.difficulty import DifficultyTable
from repro.crypto.hashing import meets_target, target_for_difficulty
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import merkle_root
from repro.errors import InvalidBlockError

#: Relative tolerance when comparing declared vs. recomputed difficulty
#: (both sides derive from the same float pipeline, so this is generous).
DIFFICULTY_RTOL = 1e-6


@dataclass
class BlockBuilder:
    """Builds candidate headers for one node.

    Attributes:
        keypair: the node's identity; its fingerprint is the producer field.
    """

    keypair: KeyPair

    def build_header(
        self,
        parent: Block,
        transactions: Sequence[Transaction],
        timestamp: float,
        multiple: float,
        base_difficulty: float,
        epoch: int,
    ) -> BlockHeader:
        """Initialize the candidate header for puzzle solving."""
        return BlockHeader(
            version=BLOCK_VERSION,
            height=parent.height + 1,
            parent_hash=parent.block_id,
            merkle_root=merkle_root([tx.tx_id for tx in transactions]),
            timestamp=timestamp,
            producer=self.keypair.public.fingerprint(),
            difficulty_multiple=multiple,
            base_difficulty=base_difficulty,
            epoch=epoch,
            nonce=0,
        )


@dataclass
class BlockValidator:
    """Validates received blocks against local consensus state (§III).

    Attributes:
        is_member: membership predicate over producer fingerprints.
        parent_lookup: the held block with a given id — a block is judged
            only once its parent is held, and its height must follow.
        table_lookup: resolves the difficulty table governing a block —
            normally :meth:`ConsensusChainState.governing` on the block's
            own parent, so forked epoch boundaries validate consistently.
        t0: deployment base target.
        check_pow: verify the header hash against the target.  ``True`` in
            real-mining deployments; oracle-driven simulations disable it
            (solve times are sampled, nonces are not ground — see DESIGN.md).
        verify_signatures: verify the producer's header signature.  Kept on
            in correctness tests; large sweeps disable it for speed.
    """

    is_member: Callable[[bytes], bool]
    parent_lookup: Callable[[bytes], Block]
    table_lookup: Callable[[Block], DifficultyTable]
    t0: int
    check_pow: bool = True
    verify_signatures: bool = True

    def validate(self, block: Block) -> None:
        """Run checks 1 and 2 of §III; raises :class:`InvalidBlockError`."""
        header = block.header
        # Check 1 — producer identity.
        if not self.is_member(header.producer):
            raise InvalidBlockError(
                f"producer {header.producer.hex()[:8]} is not a consensus member"
            )
        if self.verify_signatures and not block.verify_signature():
            raise InvalidBlockError("block header signature is invalid")
        # Check 2 — declared position and difficulty must match the local
        # tree and table.
        parent = self.parent_lookup(header.parent_hash)
        if header.height != parent.height + 1:
            raise InvalidBlockError(
                f"declared height {header.height} does not follow parent "
                f"height {parent.height}"
            )
        table = self.table_lookup(block)
        if header.epoch != table.epoch:
            raise InvalidBlockError(
                f"declared epoch {header.epoch} != table epoch {table.epoch}"
            )
        expected_multiple = table.multiple(header.producer)
        if not _close(header.difficulty_multiple, expected_multiple):
            raise InvalidBlockError(
                f"declared multiple {header.difficulty_multiple:.6f} != "
                f"table multiple {expected_multiple:.6f} (epoch {header.epoch})"
            )
        if not _close(header.base_difficulty, table.base):
            raise InvalidBlockError(
                f"declared base {header.base_difficulty:.6f} != "
                f"table base {table.base:.6f} (epoch {header.epoch})"
            )
        if self.check_pow:
            target = target_for_difficulty(self.t0, header.difficulty)
            if not meets_target(header.hash(), target):
                raise InvalidBlockError("header hash does not meet the target")
        # Body commitment (cheap, always on).
        if not block.verify_merkle_root():
            raise InvalidBlockError("merkle root does not commit to body")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= DIFFICULTY_RTOL * max(abs(a), abs(b), 1.0)

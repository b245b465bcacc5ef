"""Tests for block building and validation (§III checks)."""

from __future__ import annotations

import pytest

from repro.chain.block import Block, build_block
from repro.chain.genesis import make_genesis
from repro.chain.transaction import make_transaction
from repro.core.difficulty import DifficultyTable
from repro.core.election import BlockBuilder, BlockValidator
from repro.crypto.hashing import EASY_T0, T_MAX
from repro.errors import InvalidBlockError
from repro.mining.miner import RealMiner

from tests.conftest import keypair


def addr(i: int) -> bytes:
    return keypair(i).public.fingerprint()


@pytest.fixture()
def table() -> DifficultyTable:
    return DifficultyTable(
        epoch=0, base=2.0, multiples={addr(0): 3.0, addr(1): 1.0}
    )


def make_validator(table, check_pow=False, verify_signatures=True) -> BlockValidator:
    return BlockValidator(
        is_member=lambda a: a in (addr(0), addr(1)),
        parent_lookup=lambda parent_id: make_genesis(),
        table_lookup=lambda block: table,
        t0=T_MAX,
        check_pow=check_pow,
        verify_signatures=verify_signatures,
    )


class TestBuilder:
    def test_builds_header(self):
        txs = [make_transaction(keypair(0), addr(1), i, i) for i in range(3)]
        genesis = make_genesis()
        header = BlockBuilder(keypair=keypair(0)).build_header(
            genesis, txs, 10.0, 3.0, 2.0, 0
        )
        assert header.height == 1
        assert header.parent_hash == genesis.block_id
        assert header.producer == addr(0)
        assert header.difficulty == pytest.approx(6.0)
        assert Block(header, None, tuple(txs)).verify_merkle_root()


class TestValidator:
    def _block(self, producer=0, multiple=3.0, base=2.0, sign=True) -> Block:
        genesis = make_genesis()
        block = build_block(
            keypair(producer), genesis.block_id, 1, [], 1.0, multiple, base, 0
        )
        if not sign:
            block = Block(block.header, None, block.transactions)
        return block

    def test_valid_block_passes(self, table):
        make_validator(table).validate(self._block())

    def test_check1_non_member_rejected(self, table):
        block = self._block(producer=5, multiple=1.0)
        with pytest.raises(InvalidBlockError, match="member"):
            make_validator(table).validate(block)

    def test_check1_missing_signature_rejected(self, table):
        block = self._block(sign=False)
        with pytest.raises(InvalidBlockError, match="signature"):
            make_validator(table).validate(block)

    def test_signature_optional_in_sim_mode(self, table):
        block = self._block(sign=False)
        make_validator(table, verify_signatures=False).validate(block)

    def test_check2_wrong_multiple_rejected(self, table):
        """§III: difficulty must match the local difficulty table."""
        block = self._block(multiple=1.0)  # table says m = 3 for addr(0)
        with pytest.raises(InvalidBlockError, match="multiple"):
            make_validator(table).validate(block)

    def test_check2_wrong_base_rejected(self, table):
        block = self._block(base=5.0)
        with pytest.raises(InvalidBlockError, match="base"):
            make_validator(table).validate(block)

    def test_check2_height_must_follow_parent(self, table):
        genesis = make_genesis()
        skipped = build_block(keypair(0), genesis.block_id, 2, [], 1.0, 3.0, 2.0, 0)
        with pytest.raises(InvalidBlockError, match="height"):
            make_validator(table).validate(skipped)

    def test_merkle_commitment_checked(self, table):
        good = self._block()
        tx = make_transaction(keypair(0), addr(1), 1, 0)
        tampered = Block(good.header, good.signature, (tx,))
        with pytest.raises(InvalidBlockError, match="merkle"):
            make_validator(table).validate(tampered)

    def test_pow_checked_when_enabled(self):
        table = DifficultyTable(epoch=0, base=1.0, multiples={addr(0): 1.0})
        validator = BlockValidator(
            is_member=lambda a: a == addr(0),
            parent_lookup=lambda parent_id: make_genesis(),
            table_lookup=lambda block: table,
            t0=EASY_T0 // 4096,  # hard enough that nonce 0 fails w.h.p.
            check_pow=True,
        )
        genesis = make_genesis()
        unmined = build_block(keypair(0), genesis.block_id, 1, [], 1.0, 1.0, 1.0, 0)
        miner = RealMiner(EASY_T0 // 4096)
        if not miner.verify(unmined.header):
            with pytest.raises(InvalidBlockError, match="target"):
                validator.validate(unmined)
        # A properly mined header passes.
        result = miner.mine(unmined.header, max_attempts=1_000_000)
        assert result.solved
        from repro.chain.block import sign_block

        mined = sign_block(keypair(0), result.header, [])
        validator.validate(mined)

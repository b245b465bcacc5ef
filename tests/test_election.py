"""Tests for block building and validation (§III checks)."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chain.block import Block, BlockHeader, build_block
from repro.chain.genesis import make_genesis
from repro.chain.transaction import make_transaction
from repro.core.difficulty import DifficultyTable
from repro.core.election import DIFFICULTY_RTOL, BlockBuilder, BlockValidator
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


def _float32(value: float) -> float:
    """``value`` rounded to the 4-byte float the paper stores ``m_i`` in."""
    return struct.unpack(">f", struct.pack(">f", value))[0]


#: Multiples and bases as a retarget leaves them: finite, >= 1, not round.
_declared = st.floats(min_value=1.0, max_value=1e9, allow_nan=False, allow_infinity=False)


class TestDifficultyFloatSemantics:
    """§IV-A stores ``m_i`` in 4 bytes; this repo's header carries 8-byte
    IEEE doubles, and check 2 compares within ``DIFFICULTY_RTOL``."""

    @staticmethod
    def _judge(multiple: float, base: float, declared_multiple: float, declared_base: float):
        table = DifficultyTable(epoch=0, base=base, multiples={addr(0): multiple})
        header = BlockBuilder(keypair(0)).build_header(
            make_genesis(), [], 1.0, declared_multiple, declared_base, 0
        )
        make_validator(table, verify_signatures=False).validate(Block(header, None, ()))

    @settings(max_examples=60, deadline=None)
    @given(_declared, _declared)
    def test_multiple_and_base_survive_header_bytes_bit_for_bit(self, multiple, base):
        header = BlockBuilder(keypair(0)).build_header(make_genesis(), [], 1.0, multiple, base, 0)
        raw = header.to_bytes()
        assert struct.pack(">d", multiple) + struct.pack(">d", base) in raw
        decoded = BlockHeader.from_bytes(raw)
        assert struct.pack(">dd", decoded.difficulty_multiple, decoded.base_difficulty) == (
            struct.pack(">dd", multiple, base)
        )

    @settings(max_examples=60, deadline=None)
    @given(_declared, _declared)
    @example(math.pi, 1000 * math.sqrt(2))  # both change when rounded
    def test_a_float32_declaration_is_accepted(self, multiple, base):
        for value in (multiple, base):
            assert abs(_float32(value) - value) <= 2.0**-24 * value < DIFFICULTY_RTOL * value
        self._judge(multiple, base, _float32(multiple), _float32(base))

    @pytest.mark.parametrize("off", [1 + 1e-5, 1 - 1e-5])
    def test_a_declaration_off_by_1e_5_relative_is_rejected(self, off):
        multiple, base = math.pi, 1000 * math.sqrt(2)
        with pytest.raises(InvalidBlockError, match="multiple"):
            self._judge(multiple, base, multiple * off, base)
        with pytest.raises(InvalidBlockError, match="base"):
            self._judge(multiple, base, multiple, base * off)

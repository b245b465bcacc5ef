"""Tests for block headers, bodies, hashing and signatures."""

from __future__ import annotations

import math
import struct

import pytest

from repro.chain.block import BLOCK_VERSION, Block, BlockHeader, build_block, sign_block
from repro.chain.genesis import GENESIS_PRODUCER, make_genesis
from repro.chain.transaction import make_transaction
from repro.crypto.merkle import EMPTY_ROOT
from repro.errors import InvalidBlockError

from tests.conftest import keypair


def _header(**overrides) -> BlockHeader:
    fields = dict(
        version=BLOCK_VERSION,
        height=1,
        parent_hash=b"\x11" * 32,
        merkle_root=EMPTY_ROOT,
        timestamp=12.5,
        producer=keypair(0).public.fingerprint(),
        difficulty_multiple=2.0,
        base_difficulty=10.0,
        epoch=0,
        nonce=7,
    )
    fields.update(overrides)
    return BlockHeader(**fields)


class TestHeader:
    def test_field_validation(self):
        with pytest.raises(InvalidBlockError):
            _header(parent_hash=b"short")
        with pytest.raises(InvalidBlockError):
            _header(merkle_root=b"short")
        with pytest.raises(InvalidBlockError):
            _header(producer=b"short")
        with pytest.raises(InvalidBlockError):
            _header(height=-1)
        with pytest.raises(InvalidBlockError):
            _header(difficulty_multiple=0.5)
        with pytest.raises(InvalidBlockError):
            _header(base_difficulty=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["difficulty_multiple", "base_difficulty"])
    def test_non_finite_difficulty_can_be_neither_built_nor_decoded(self, field, value):
        with pytest.raises(InvalidBlockError, match="finite"):
            _header(**{field: value})
        marker = 1234.5
        raw = _header(**{field: marker}).to_bytes()
        assert raw.count(struct.pack(">d", marker)) == 1
        hostile = raw.replace(struct.pack(">d", marker), struct.pack(">d", value))
        with pytest.raises(InvalidBlockError, match="finite"):
            BlockHeader.from_bytes(hostile)

    def test_total_difficulty(self):
        assert _header(difficulty_multiple=3.0, base_difficulty=4.0).difficulty == 12.0

    def test_serialization_roundtrip(self):
        header = _header()
        assert BlockHeader.from_bytes(header.to_bytes()) == header

    def test_hash_changes_with_nonce(self):
        header = _header()
        assert header.hash() != header.with_nonce(8).hash()

    def test_hash_is_32_bytes(self):
        assert len(_header().hash()) == 32


class TestBlock:
    def test_build_block_signs_and_commits(self):
        tx = make_transaction(keypair(0), keypair(1).public.fingerprint(), 1, 0)
        block = build_block(
            keypair(0), b"\x22" * 32, 3, [tx], 5.0, 1.0, 2.0, 0
        )
        assert block.verify_signature()
        assert block.verify_merkle_root()
        assert block.height == 3
        assert block.producer == keypair(0).public.fingerprint()

    def test_serialization_roundtrip_with_txs(self):
        txs = [
            make_transaction(keypair(0), keypair(1).public.fingerprint(), i, i)
            for i in range(3)
        ]
        block = build_block(keypair(0), b"\x22" * 32, 1, txs, 1.0, 1.0, 1.0, 0)
        recovered = Block.from_bytes(block.to_bytes())
        assert recovered.block_id == block.block_id
        assert recovered.transactions == block.transactions
        assert recovered.verify_signature()

    def test_merkle_root_detects_body_tamper(self):
        tx0 = make_transaction(keypair(0), keypair(1).public.fingerprint(), 1, 0)
        tx1 = make_transaction(keypair(0), keypair(1).public.fingerprint(), 2, 1)
        block = build_block(keypair(0), b"\x22" * 32, 1, [tx0], 1.0, 1.0, 1.0, 0)
        tampered = Block(block.header, block.signature, (tx1,))
        assert not tampered.verify_merkle_root()

    def test_unsigned_block_fails_signature(self):
        block = Block(_header(), None, ())
        assert not block.verify_signature()

    def test_signature_by_non_producer_fails(self):
        header = _header(producer=keypair(0).public.fingerprint())
        with pytest.raises(InvalidBlockError):
            sign_block(keypair(1), header, [])

    def test_signature_verdict_computed_once_per_instance(self, ecdsa_verify_calls):
        block = sign_block(keypair(0), _header(), [])
        assert block.verify_signature() and block.verify_signature()
        assert len(ecdsa_verify_calls) == 1
        # Another instance — here one whose header no longer matches the
        # signature — is judged on its own.
        resigned = Block(_header(nonce=8), block.signature, ())
        assert not resigned.verify_signature() and not resigned.verify_signature()
        assert Block.from_bytes(block.to_bytes()).verify_signature()
        assert len(ecdsa_verify_calls) == 3

    def test_block_id_is_header_hash(self):
        block = Block(_header(), None, ())
        assert block.block_id == block.header.hash()

    def test_size_counts_body(self):
        tx = make_transaction(keypair(0), keypair(1).public.fingerprint(), 1, 0)
        empty = build_block(keypair(0), b"\x22" * 32, 1, [], 1.0, 1.0, 1.0, 0)
        full = build_block(keypair(0), b"\x22" * 32, 1, [tx], 1.0, 1.0, 1.0, 0)
        assert full.size > empty.size + 500  # one 512-byte transaction


class TestGenesis:
    def test_deterministic(self):
        assert make_genesis().block_id == make_genesis().block_id

    def test_distinct_chain_ids_distinct_genesis(self):
        assert make_genesis("a").block_id != make_genesis("b").block_id

    def test_shape(self):
        genesis = make_genesis()
        assert genesis.height == 0
        assert genesis.producer == GENESIS_PRODUCER
        assert genesis.signature is None
        assert genesis.transactions == ()
        assert genesis.header.merkle_root == EMPTY_ROOT

"""Tests for transactions: construction, signing, padding, serialization."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.chain.transaction import TX_SIZE, Transaction, make_transaction
from repro.crypto.keys import KeyPair
from repro.crypto.signature import sign_digest
from repro.errors import CodecError, InvalidTransactionError

from tests.conftest import keypair


def _addr(i: int) -> bytes:
    return keypair(i).public.fingerprint()


#: One signature envelope to attach to drawn transactions (its validity does
#: not matter to their size, and signing each draw would be slow).
_SIGNED = make_transaction(keypair(0), _addr(1), 1, 0)


class TestConstruction:
    def test_address_length_enforced(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(b"short", _addr(1), 1, 0)
        with pytest.raises(InvalidTransactionError):
            Transaction(_addr(0), b"short", 1, 0)

    def test_negative_amount_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(_addr(0), _addr(1), -1, 0)

    def test_negative_nonce_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(_addr(0), _addr(1), 1, -1)


class TestSigning:
    def test_make_transaction_signs(self):
        tx = make_transaction(keypair(0), _addr(1), 10, 0)
        assert tx.verify_signature()

    def test_unsigned_fails_verification(self):
        tx = Transaction(_addr(0), _addr(1), 1, 0)
        assert not tx.verify_signature()

    def test_wrong_signer_rejected(self):
        tx = Transaction(_addr(0), _addr(1), 1, 0)
        with pytest.raises(InvalidTransactionError):
            tx.signed_by(keypair(1))

    def test_signer_must_own_sender_address(self):
        # Sign with the right key, then swap in another key's envelope.
        tx = Transaction(_addr(0), _addr(1), 1, 0).signed_by(keypair(0))
        forged_sig = sign_digest(keypair(1), tx.signing_digest())
        forged = Transaction(
            tx.sender, tx.recipient, tx.amount, tx.nonce, tx.payload, tx.padding, forged_sig
        )
        assert not forged.verify_signature()

    def test_digest_covers_all_fields(self):
        base = Transaction(_addr(0), _addr(1), 1, 0, b"p", b"q")
        variants = [
            Transaction(_addr(0), _addr(1), 2, 0, b"p", b"q"),
            Transaction(_addr(0), _addr(1), 1, 1, b"p", b"q"),
            Transaction(_addr(0), _addr(1), 1, 0, b"x", b"q"),
            Transaction(_addr(0), _addr(1), 1, 0, b"p", b"y"),
            Transaction(_addr(0), _addr(2), 1, 0, b"p", b"q"),
        ]
        digests = {v.signing_digest() for v in variants}
        assert base.signing_digest() not in digests
        assert len(digests) == len(variants)


class TestPadding:
    def test_default_size_is_512(self):
        tx = make_transaction(keypair(0), _addr(1), 10, 0)
        assert tx.size == TX_SIZE

    def test_padding_with_payload(self):
        tx = make_transaction(keypair(0), _addr(1), 0, 0, payload=b"call-data")
        assert tx.size == TX_SIZE
        assert tx.payload == b"call-data"

    def test_no_padding_option(self):
        tx = make_transaction(keypair(0), _addr(1), 10, 0, pad_to=None)
        assert tx.size < TX_SIZE
        assert tx.padding == b""

    def test_oversized_payload_rejected(self):
        with pytest.raises(InvalidTransactionError):
            make_transaction(keypair(0), _addr(1), 0, 0, payload=b"x" * 600)

    def test_padding_preserves_signature_validity(self):
        tx = make_transaction(keypair(0), _addr(1), 5, 3, payload=b"\x00\x01")
        assert tx.verify_signature()

    @pytest.mark.parametrize("target", [256, 300, 512, 1024])
    def test_arbitrary_pad_targets(self, target):
        tx = make_transaction(keypair(0), _addr(1), 1, 0, pad_to=target)
        assert tx.size == target

    # Ids recorded from the three-signature padding loop this arithmetic
    # replaced.  The unpadded transfer is 142 bytes, so a 240-byte payload
    # leaves 128 bytes of padding (two-byte length prefix), 242 leaves 127
    # (one-byte prefix), and 241 falls between the two and cannot be padded.
    GOLDEN = [
        (0, TX_SIZE, 369, "846166426ab951ec2a5158ad9990c70414871a8519c3d4d9e3dd7f1b3f1c0686"),
        (10, TX_SIZE, 359, "d0f06de3fc9b895d71c7455f9da213e5739c5cb7106d215954523f0656454418"),
        (240, TX_SIZE, 128, "acbd3ba1f03c2b4182fe4bf5f06050875b5805e711f869940378a1a65c7ee426"),
        (242, TX_SIZE, 127, "d6e5626d62ad306912a1aa6d4b84dae0f417ff114a098ae5e529fc5469a3408f"),
        (368, TX_SIZE, 1, "9f9bdf80195f3d0a2bf3edd8123c3d178cdfe19e5e0597a10ac8424cb6380c4e"),
        (369, TX_SIZE, 0, "a04d20ee3583f3d857ba05e4973d7891a352ad8aea427af3eb327c82889776a8"),
        (3, None, 0, "3bb892b8591a38ee9ae6182e0a97f5289642b94f5f62a2a90f2aecf58f6edd30"),
        (0, 16528, 16384, "583bf2e325343904f9dc7f000679032c6dee14f75d489192625392018d732fe7"),
        (0, 16526, 16383, "64b5e5b2c4cd0b1ea4790edc90fbb9464e831503a4d04b598779a41ae8ad06b6"),
    ]

    @staticmethod
    def _golden(payload_len: int, pad_to: int | None) -> Transaction:
        sender = KeyPair.from_seed("golden-sender")
        recipient = KeyPair.from_seed("golden-recipient").public.fingerprint()
        return make_transaction(
            sender, recipient, 7, 3, payload=b"\x01" * payload_len, pad_to=pad_to
        )

    @pytest.mark.parametrize(("payload_len", "pad_to", "padding", "tx_id"), GOLDEN)
    def test_golden_ids(self, payload_len, pad_to, padding, tx_id):
        tx = self._golden(payload_len, pad_to)
        assert len(tx.padding) == padding
        assert tx.size == (pad_to or 145)
        assert tx.tx_id.hex() == tx_id
        assert tx.verify_signature()

    @pytest.mark.parametrize(("payload_len", "pad_to"), [(241, TX_SIZE), (0, 16527)])
    def test_unreachable_size_on_the_varint_boundary(self, payload_len, pad_to):
        with pytest.raises(CodecError, match="varint boundary"):
            self._golden(payload_len, pad_to)

    def test_one_byte_too_long_is_refused(self):
        with pytest.raises(InvalidTransactionError, match="already 513 bytes"):
            self._golden(370, TX_SIZE)

    def test_padded_transfer_is_signed_once(self, ecdsa_sign_calls):
        make_transaction(keypair(0), _addr(1), 10, 0)
        make_transaction(keypair(0), _addr(1), 10, 1, payload=b"\x01" * 240)
        assert len(ecdsa_sign_calls) == 2


class TestVerdictMemo:
    def test_valid_verdict_computed_once(self, ecdsa_verify_calls):
        tx = make_transaction(keypair(0), _addr(1), 10, 0)
        assert tx.verify_signature() and tx.verify_signature()
        assert len(ecdsa_verify_calls) == 1

    def test_invalid_verdict_computed_once(self, ecdsa_verify_calls):
        forged = replace(make_transaction(keypair(0), _addr(1), 10, 0), amount=11)
        assert not forged.verify_signature() and not forged.verify_signature()
        assert len(ecdsa_verify_calls) == 1

    def test_memo_does_not_follow_a_modified_copy(self, ecdsa_verify_calls):
        tx = make_transaction(keypair(0), _addr(1), 10, 0)
        assert tx.verify_signature()
        assert not replace(tx, amount=11).verify_signature()
        assert Transaction.from_bytes(tx.to_bytes()).verify_signature()
        assert len(ecdsa_verify_calls) == 3

    def test_memo_is_not_part_of_equality_or_bytes(self):
        tx = make_transaction(keypair(0), _addr(1), 10, 0)
        twin = Transaction.from_bytes(tx.to_bytes())
        tx.verify_signature()
        assert tx == twin and tx.to_bytes() == twin.to_bytes() and tx.tx_id == twin.tx_id


class TestSerialization:
    def test_roundtrip_signed(self):
        tx = make_transaction(keypair(0), _addr(1), 7, 2, payload=b"data")
        recovered = Transaction.from_bytes(tx.to_bytes())
        assert recovered == tx
        assert recovered.tx_id == tx.tx_id
        assert recovered.verify_signature()

    def test_roundtrip_unsigned(self):
        tx = Transaction(_addr(0), _addr(1), 1, 0, b"p")
        assert Transaction.from_bytes(tx.to_bytes()) == tx

    def test_tx_id_changes_with_content(self):
        a = make_transaction(keypair(0), _addr(1), 1, 0)
        b = make_transaction(keypair(0), _addr(1), 1, 1)
        assert a.tx_id != b.tx_id

    def test_tx_id_is_32_bytes(self):
        tx = make_transaction(keypair(0), _addr(1), 1, 0)
        assert len(tx.tx_id) == 32


class TestSize:
    @given(
        amount=st.integers(min_value=0, max_value=2**70),
        nonce=st.integers(min_value=0, max_value=2**40),
        payload=st.binary(max_size=300),
        padding=st.binary(max_size=300),
        signed=st.booleans(),
    )
    def test_size_is_the_encoded_length(self, amount, nonce, payload, padding, signed):
        tx = Transaction(_addr(0), _addr(1), amount, nonce, payload, padding)
        if signed:
            tx = replace(tx, signature=_SIGNED.signature)
        assert tx.size == len(tx.to_bytes())

    def test_size_does_not_encode(self, monkeypatch):
        tx = make_transaction(keypair(0), _addr(1), 5, 3)
        monkeypatch.setattr(
            Transaction, "to_bytes", lambda self: pytest.fail("size encoded the transaction")
        )
        assert tx.size == TX_SIZE


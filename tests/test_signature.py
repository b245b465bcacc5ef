"""Tests for block-header signature envelopes."""

from __future__ import annotations

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.signature import SIGNATURE_SIZE, Signature, sign_digest
from repro.errors import CryptoError

from tests.conftest import keypair


class TestEnvelope:
    def test_sign_and_verify(self):
        digest = sha256(b"header")
        sig = sign_digest(keypair(0), digest)
        assert sig.verify(digest)
        assert sig.public_key == keypair(0).public

    def test_serialized_size(self):
        sig = sign_digest(keypair(0), sha256(b"h"))
        assert len(sig.to_bytes()) == SIGNATURE_SIZE == 97

    def test_roundtrip(self):
        digest = sha256(b"header")
        sig = sign_digest(keypair(0), digest)
        recovered = Signature.from_bytes(sig.to_bytes())
        assert recovered == sig
        assert recovered.verify(digest)

    def test_bad_length_rejected(self):
        with pytest.raises(CryptoError):
            Signature.from_bytes(b"\x00" * 96)

    def test_wrong_digest_fails(self):
        sig = sign_digest(keypair(0), sha256(b"a"))
        assert not sig.verify(sha256(b"b"))

    def test_envelope_carries_signer_identity(self):
        # §VI-C: the envelope includes the public key so receivers can match
        # it against the consensus node set.
        sig = sign_digest(keypair(3), sha256(b"x"))
        assert sig.public_key.fingerprint() == keypair(3).public.fingerprint()

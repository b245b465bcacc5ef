"""Block-header signature envelopes.

§III: after a node solves the puzzle it "signs the block header with its
private key and broadcasts the block together with its signature"; receiving
nodes "firstly verify whether the block header signature belongs to the node
in the consensus node set".

A :class:`Signature` bundles the raw 64-byte ECDSA signature with the signer's
compressed public key, giving a 97-byte envelope (~the "about 128 Bytes" the
paper budgets in §VI-C once framing is included).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import KeyPair, PublicKey, ecdsa_sign, ecdsa_verify
from repro.errors import CryptoError

#: Serialized envelope size: 64-byte (r, s) + 33-byte compressed pubkey.
SIGNATURE_SIZE = 97


@dataclass(frozen=True)
class Signature:
    """A detached signature over a 32-byte digest, with the signer's key."""

    r: int
    s: int
    public_key: PublicKey

    def to_bytes(self) -> bytes:
        """Serialize as ``r || s || compressed_pubkey`` (97 bytes)."""
        return (
            self.r.to_bytes(32, "big")
            + self.s.to_bytes(32, "big")
            + self.public_key.to_bytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != SIGNATURE_SIZE:
            raise CryptoError(f"signature envelope must be {SIGNATURE_SIZE} bytes")
        r = int.from_bytes(data[:32], "big")
        s = int.from_bytes(data[32:64], "big")
        public_key = PublicKey.from_bytes(data[64:])
        return cls(r, s, public_key)

    def verify(self, digest: bytes) -> bool:
        """Return whether this signature is valid over ``digest``."""
        return ecdsa_verify(self.public_key, digest, (self.r, self.s))


def sign_digest(keypair: KeyPair, digest: bytes) -> Signature:
    """Sign a 32-byte digest, returning the full envelope."""
    r, s = ecdsa_sign(keypair.private, digest)
    return Signature(r, s, keypair.public)

"""Transactions.

The evaluation fixes "each transaction size is 512 Bytes" (§VII-A), so the
default constructor pads the payload until the serialized transaction is
exactly :data:`TX_SIZE` bytes.  Transactions are account-based transfers with
an optional contract call (used by the :class:`~repro.ledger.contract.NodeSetContract`
governance flow of §IV-C) and are signed by the sender with the same ECDSA
scheme as block headers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from repro.chain.codec import Reader, Writer, encoded_size_varint
from repro.crypto.hashing import sha256d
from repro.crypto.keys import KeyPair
from repro.crypto.signature import SIGNATURE_SIZE, Signature, sign_digest
from repro.errors import CodecError, InvalidTransactionError

#: Canonical transaction size from §VII-A.
TX_SIZE = 512


@dataclass(frozen=True)
class Transaction:
    """A signed, account-based transaction.

    Attributes:
        sender: 20-byte address (public-key fingerprint) of the payer.
        recipient: 20-byte address of the payee or contract.
        amount: transferred value (arbitrary integer units).
        nonce: per-sender sequence number, enforced by the ledger.
        payload: opaque call data; contract calls encode method+args here.
        padding: semantics-free filler bytes used to reach the fixed wire
            size of §VII-A without touching the payload.
        signature: ECDSA envelope over :meth:`signing_digest`, or ``None``
            while unsigned.
    """

    sender: bytes
    recipient: bytes
    amount: int
    nonce: int
    payload: bytes = b""
    padding: bytes = b""
    signature: Signature | None = None

    def __post_init__(self) -> None:
        if len(self.sender) != 20 or len(self.recipient) != 20:
            raise InvalidTransactionError("addresses must be 20 bytes")
        if self.amount < 0:
            raise InvalidTransactionError("amount must be non-negative")
        if self.nonce < 0:
            raise InvalidTransactionError("nonce must be non-negative")

    # -- serialization -------------------------------------------------------

    def _write_unsigned(self, writer: Writer) -> None:
        writer.write_bytes_raw(self.sender)
        writer.write_bytes_raw(self.recipient)
        writer.write_varint(self.amount)
        writer.write_varint(self.nonce)
        writer.write_bytes(self.payload)
        writer.write_bytes(self.padding)

    def signing_digest(self) -> bytes:
        """Digest the sender signs: double-SHA-256 of the unsigned fields."""
        writer = Writer()
        self._write_unsigned(writer)
        return sha256d(writer.getvalue())

    def to_bytes(self) -> bytes:
        """Serialize the full transaction (signature included if present)."""
        writer = Writer()
        self._write_unsigned(writer)
        if self.signature is None:
            writer.write_bool(False)
        else:
            writer.write_bool(True)
            writer.write_bytes_raw(self.signature.to_bytes())
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, *, hash_ids: bool = False) -> "Transaction":
        """Decode ``data``; with ``hash_ids`` its :attr:`tx_id` is hashed from
        ``data`` now, where reading it later would re-encode the transaction.

        The codec is canonical (``data == tx.to_bytes()``), so both give the
        same id.  The wire asks for it (every transaction a peer sends is
        admitted or Merkle-checked by id); a store's own rows do not, as a
        bare recovery would hold a digest per transaction it never reads.
        """
        reader = Reader(data)
        tx = cls._read(reader)
        reader.expect_end()
        if hash_ids:
            # What the cached property would store; ``tx.__dict__[...]`` would
            # also build the instance dict, 64 B more per transaction.
            object.__setattr__(tx, "tx_id", sha256d(data))
        return tx

    @classmethod
    def _read(cls, reader: Reader) -> "Transaction":
        sender = reader.read_bytes_raw(20)
        recipient = reader.read_bytes_raw(20)
        amount = reader.read_varint()
        nonce = reader.read_varint()
        payload = reader.read_bytes()
        padding = reader.read_bytes()
        signature = None
        if reader.read_bool():
            signature = Signature.from_bytes(reader.read_bytes_raw(SIGNATURE_SIZE))
        return cls(sender, recipient, amount, nonce, payload, padding, signature)

    @cached_property
    def tx_id(self) -> bytes:
        """Transaction identifier: double-SHA-256 of the serialized form."""
        return sha256d(self.to_bytes())

    @property
    def size(self) -> int:
        """Serialized size in bytes (what the network charges for), counted
        from the field lengths in :meth:`to_bytes`'s layout, not encoded."""
        return (
            40  # sender, recipient
            + encoded_size_varint(self.amount)
            + encoded_size_varint(self.nonce)
            + encoded_size_varint(len(self.payload))
            + len(self.payload)
            + encoded_size_varint(len(self.padding))
            + len(self.padding)
            + 1  # the signature flag
            + (0 if self.signature is None else SIGNATURE_SIZE)
        )

    # -- signing -------------------------------------------------------------

    def signed_by(self, keypair: KeyPair) -> "Transaction":
        """Return a copy signed by ``keypair``.

        The signer's fingerprint must match :attr:`sender`.
        """
        if keypair.public.fingerprint() != self.sender:
            raise InvalidTransactionError("signer fingerprint != sender address")
        signature = sign_digest(keypair, self.signing_digest())
        return Transaction(
            self.sender,
            self.recipient,
            self.amount,
            self.nonce,
            self.payload,
            self.padding,
            signature,
        )

    def verify_signature(self) -> bool:
        """Check the signature and that the signer owns the sender address.

        The verdict is a function of the frozen fields, so it is computed
        once per instance: admission, execution and a reorg's replay of the
        same object pay for one ECDSA verification between them.
        """
        return self._signature_ok

    @cached_property
    def _signature_ok(self) -> bool:
        if self.signature is None:
            return False
        if self.signature.public_key.fingerprint() != self.sender:
            return False
        return self.signature.verify(self.signing_digest())


def make_transaction(
    keypair: KeyPair,
    recipient: bytes,
    amount: int,
    nonce: int,
    payload: bytes = b"",
    pad_to: int | None = TX_SIZE,
) -> Transaction:
    """Build and sign a transaction, padding it to ``pad_to`` bytes.

    Padding appends zero bytes to the payload until the *serialized* size is
    exactly ``pad_to``, matching the fixed 512-byte transactions of §VII-A.
    Pass ``pad_to=None`` to skip padding (e.g. contract-call transactions in
    unit tests that assert on payload contents).
    """
    sender = keypair.public.fingerprint()
    tx = Transaction(sender, recipient, amount, nonce, payload)
    if pad_to is not None:
        # The signature envelope is a fixed size, so the padding follows from
        # the unsigned bytes alone and the transaction is signed once.
        unpadded = tx.size + SIGNATURE_SIZE
        if unpadded > pad_to:
            raise InvalidTransactionError(
                f"transaction already {unpadded} bytes, cannot pad down to {pad_to}"
            )
        # ``unpadded`` counts a one-byte length prefix for the empty padding;
        # a longer padding may need a longer prefix, which eats into it.
        room = pad_to - unpadded + 1
        for prefix in range(1, encoded_size_varint(room) + 1):
            if encoded_size_varint(room - prefix) == prefix:
                tx = replace(tx, padding=b"\x00" * (room - prefix))
                break
        else:
            raise CodecError(
                f"cannot pad transaction to exactly {pad_to} bytes (varint boundary)"
            )
    return tx.signed_by(keypair)

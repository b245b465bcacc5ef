"""Wire serialization for live transport messages.

The simulated network passes :class:`~repro.net.message.Message` objects by
reference; the live TCP backend must put them on real sockets.  This module
maps each message kind onto the repo's canonical codec
(:mod:`repro.chain.codec`) so both backends speak about the *same* payloads:

* ``block`` — the block's own canonical serialization;
* ``tx`` — the transaction's canonical serialization;
* ``sync/*`` — the chain-sync request/response dicts field by field;
* ``live/hello`` — the one live-only kind: a connection handshake that
  announces the dialing node's id.

Framing is a 4-byte big-endian unsigned length prefix followed by the
encoded message, so a stream reader can recover message boundaries without
parsing the body (:class:`FrameDecoder`).  Frames above :data:`MAX_FRAME`
bytes are rejected before buffering — a corrupt or hostile length prefix
must not balloon memory.

The envelope carries ``(kind, origin, msg_id, body_size)``.  ``msg_id`` is
a process-local counter, so live gossip deduplicates on the *pair*
``(origin, msg_id)`` — two processes may emit the same counter value, but a
single origin never reuses one.
"""

from __future__ import annotations

import struct

from repro.chain.block import Block
from repro.chain.codec import Reader, Writer
from repro.chain.transaction import Transaction
from repro.errors import CodecError, ReproError
from repro.net.message import (
    KIND_BLOCK,
    KIND_SYNC_BLOCKS_REQUEST,
    KIND_SYNC_BLOCKS_RESPONSE,
    KIND_SYNC_HEADERS_REQUEST,
    KIND_SYNC_HEADERS_RESPONSE,
    KIND_TX,
    Message,
)

#: Live-only connection handshake: payload {"node_id": int}.
KIND_HELLO = "live/hello"

#: Bytes in the length prefix of every frame.
FRAME_HEADER_BYTES = 4

#: Hard ceiling on one frame's body size (16 MiB) — applied before buffering.
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# -- payload codecs --------------------------------------------------------------------


def _write_id_list(writer: Writer, ids: list[bytes]) -> None:
    writer.write_varint(len(ids))
    for block_id in ids:
        writer.write_bytes(block_id)


def _read_id_list(reader: Reader) -> list[bytes]:
    return [reader.read_bytes() for _ in range(reader.read_varint())]


def _encode_payload(message: Message, writer: Writer) -> None:
    kind = message.kind
    payload = message.payload
    if kind == KIND_BLOCK:
        writer.write_bytes(payload.to_bytes())
    elif kind == KIND_TX:
        writer.write_bytes(payload.to_bytes())
    elif kind == KIND_HELLO:
        writer.write_varint(payload["node_id"])
    elif kind == KIND_SYNC_HEADERS_REQUEST:
        writer.write_str(payload["request_id"])
        _write_id_list(writer, payload["locator"])
    elif kind == KIND_SYNC_HEADERS_RESPONSE:
        writer.write_str(payload["request_id"])
        writer.write_varint(payload["start_height"])
        _write_id_list(writer, payload["ids"])
        writer.write_bool(payload["full"])
    elif kind == KIND_SYNC_BLOCKS_REQUEST:
        writer.write_str(payload["request_id"])
        _write_id_list(writer, payload["ids"])
    elif kind == KIND_SYNC_BLOCKS_RESPONSE:
        writer.write_str(payload["request_id"])
        blocks: list[Block] = payload["blocks"]
        writer.write_varint(len(blocks))
        for block in blocks:
            writer.write_bytes(block.to_bytes())
    else:
        raise CodecError(f"no wire codec for message kind {kind!r}")


def _decode_payload(kind: str, reader: Reader) -> object:
    if kind == KIND_BLOCK:
        return Block.from_bytes(reader.read_bytes())
    if kind == KIND_TX:
        return Transaction.from_bytes(reader.read_bytes())
    if kind == KIND_HELLO:
        return {"node_id": reader.read_varint()}
    if kind == KIND_SYNC_HEADERS_REQUEST:
        return {
            "request_id": reader.read_str(),
            "locator": _read_id_list(reader),
        }
    if kind == KIND_SYNC_HEADERS_RESPONSE:
        return {
            "request_id": reader.read_str(),
            "start_height": reader.read_varint(),
            "ids": _read_id_list(reader),
            "full": reader.read_bool(),
        }
    if kind == KIND_SYNC_BLOCKS_REQUEST:
        return {
            "request_id": reader.read_str(),
            "ids": _read_id_list(reader),
        }
    if kind == KIND_SYNC_BLOCKS_RESPONSE:
        return {
            "request_id": reader.read_str(),
            "blocks": [
                Block.from_bytes(reader.read_bytes())
                for _ in range(reader.read_varint())
            ],
        }
    raise CodecError(f"no wire codec for message kind {kind!r}")


# -- message envelope -------------------------------------------------------------------


def encode_message(message: Message) -> bytes:
    """Serialize one message (envelope + payload), without framing."""
    writer = Writer()
    writer.write_str(message.kind)
    writer.write_varint(message.origin)
    writer.write_varint(message.msg_id)
    writer.write_varint(message.body_size)
    _encode_payload(message, writer)
    return writer.getvalue()


def _read_envelope(reader: Reader) -> tuple[str, int, int, int]:
    return reader.read_str(), reader.read_varint(), reader.read_varint(), reader.read_varint()


def peek_envelope(data: bytes) -> tuple[str, int, int]:
    """``(kind, origin, msg_id)`` of an encoded message, its payload unparsed:
    what gossip dedup needs before deciding the payload is worth decoding."""
    kind, origin, msg_id, _ = _read_envelope(Reader(data))
    return kind, origin, msg_id


def decode_message(data: bytes) -> Message:
    """Rebuild a message from :func:`encode_message` output.

    The decoded message keeps the sender's ``msg_id`` (instead of drawing a
    fresh local one) so gossip dedup on ``(origin, msg_id)`` sees the same
    identity at every hop.  Any body that does not make a message raises
    :class:`CodecError` — a payload that parses but cannot be built (a
    header below difficulty 1, a key off the curve) included, chained from
    the error its constructor raised.
    """
    reader = Reader(data)
    kind, origin, msg_id, body_size = _read_envelope(reader)
    try:
        payload = _decode_payload(kind, reader)
    except CodecError:
        raise
    except ReproError as exc:
        raise CodecError(f"{kind!r} payload is not well-formed: {exc}") from exc
    reader.expect_end()
    return Message(
        kind=kind,
        payload=payload,
        body_size=body_size,
        origin=origin,
        msg_id=msg_id,
    )


# -- stream framing ---------------------------------------------------------------------


def frame(body: bytes) -> bytes:
    """Prefix an encoded message with its 4-byte big-endian length."""
    if len(body) > MAX_FRAME:
        raise CodecError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _LENGTH.pack(len(body)) + body


class FrameDecoder:
    """Incremental splitter of a byte stream into message frames.

    Feed it whatever the socket produced; it returns every complete frame
    body and buffers the rest.  A declared length above :data:`MAX_FRAME`
    raises immediately — before any attempt to buffer the body.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered while waiting for a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data`` and return the bodies of all completed frames."""
        self._buffer.extend(data)
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < FRAME_HEADER_BYTES:
                return frames
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise CodecError(f"declared frame of {length} bytes exceeds MAX_FRAME")
            end = FRAME_HEADER_BYTES + length
            if len(self._buffer) < end:
                return frames
            frames.append(bytes(self._buffer[FRAME_HEADER_BYTES:end]))
            del self._buffer[:end]

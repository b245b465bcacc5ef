"""Wire serialization for live transport messages.

The simulated network passes :class:`~repro.net.message.Message` objects by
reference; the live TCP backend must put them on real sockets.  One table,
:data:`_CODECS`, maps each message kind to the ``(write, read)`` pair of its
payload, so the encoder and the decoder read the same entry.  ``block`` and
``tx`` use the object's own canonical serialization (:mod:`repro.chain.codec`),
so both backends speak about the *same* payloads.  Every other payload is a
frozen dataclass that declares its ``kind`` (the ``sync/*`` ones and
:class:`Hello`, the live-only handshake); its pair is derived once, at
import, from its field types in declaration order: ``str``, varint ``int``,
``bool``, and a count then the items for ``tuple[bytes, ...]`` and
``tuple[Block, ...]``.

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

import dataclasses
import struct
import typing
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.chain.block import Block
from repro.chain.codec import Reader, Writer
from repro.chain.transaction import Transaction
from repro.errors import CodecError, ReproError
from repro.net.message import (
    KIND_BLOCK,
    KIND_TX,
    BlocksRequest,
    BlocksResponse,
    HeadersRequest,
    HeadersResponse,
    Message,
)


@dataclass(frozen=True, slots=True)
class Hello:
    """Live-only connection handshake: the dialing node's id."""

    kind: ClassVar[str] = "live/hello"
    node_id: int


KIND_HELLO = Hello.kind

#: Bytes in the length prefix of every frame.
FRAME_HEADER_BYTES = 4

#: Hard ceiling on one frame's body size (16 MiB) — applied before buffering.
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# -- payload codecs --------------------------------------------------------------------

_Codec = tuple[Callable[[Writer, Any], object], Callable[[Reader], Any]]


def _canonical(cls: type[Block] | type[Transaction]) -> _Codec:
    """A chain object as its own canonical bytes, length-prefixed; transaction
    ids are hashed from the bytes they arrived in."""
    return (
        lambda writer, value: writer.write_bytes(value.to_bytes()),
        lambda reader: cls.from_bytes(reader.read_bytes(), hash_ids=True),
    )


_FIELD_CODECS: dict[object, _Codec] = {
    str: (Writer.write_str, Reader.read_str),
    int: (Writer.write_varint, Reader.read_varint),
    bool: (Writer.write_bool, Reader.read_bool),
    bytes: (Writer.write_bytes, Reader.read_bytes),
    Block: _canonical(Block),
}


def _field_codec(annotation: object) -> _Codec:
    """The pair for one field type; a ``tuple[X, ...]`` is a count, then
    the items."""
    if typing.get_origin(annotation) is not tuple:
        return _FIELD_CODECS[annotation]
    write_item, read_item = _FIELD_CODECS[typing.get_args(annotation)[0]]

    def write(writer: Writer, items: tuple[Any, ...]) -> None:
        writer.write_varint(len(items))
        for item in items:
            write_item(writer, item)

    def read(reader: Reader) -> tuple[Any, ...]:
        return tuple([read_item(reader) for _ in range(reader.read_varint())])

    return write, read


def _dataclass_codec(cls: type) -> _Codec:
    """The pair for a payload dataclass: its fields in declaration order."""
    hints = typing.get_type_hints(cls)
    fields = [(f.name, *_field_codec(hints[f.name])) for f in dataclasses.fields(cls)]

    def write(writer: Writer, payload: Any) -> None:
        for name, write_field, _ in fields:
            write_field(writer, getattr(payload, name))

    def read(reader: Reader) -> Any:
        return cls(*[read_field(reader) for _, _, read_field in fields])

    return write, read


#: Message kind → ``(write, read)`` of its payload: the whole wire protocol.
_CODECS: dict[str, _Codec] = {
    KIND_BLOCK: _canonical(Block),
    KIND_TX: _canonical(Transaction),
    **{
        cls.kind: _dataclass_codec(cls)
        for cls in (Hello, HeadersRequest, HeadersResponse, BlocksRequest, BlocksResponse)
    },
}


def _codec(kind: str) -> _Codec:
    codec = _CODECS.get(kind)
    if codec is None:
        raise CodecError(f"no wire codec for message kind {kind!r}")
    return codec


# -- message envelope -------------------------------------------------------------------


def encode_message(message: Message) -> bytes:
    """Serialize one message (envelope + payload), without framing."""
    writer = Writer()
    writer.write_str(message.kind)
    writer.write_varint(message.origin)
    writer.write_varint(message.msg_id)
    writer.write_varint(message.body_size)
    _codec(message.kind)[0](writer, message.payload)
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
    read = _codec(kind)[1]
    try:
        payload = read(reader)
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

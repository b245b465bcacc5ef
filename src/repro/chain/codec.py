"""Deterministic binary codec for chain objects and network messages.

All on-wire and hashed structures in this library serialize through the same
small codec so sizes are well defined (the network simulator charges bandwidth
by serialized size, §VII-A) and hashing is canonical.  The format is a simple
length-prefixed scheme:

* integers — unsigned LEB128 varints, minimal length only (:func:`write_varint`);
* byte strings — varint length + raw bytes;
* floats — 8-byte IEEE-754 big-endian;
* sequences — varint count followed by the items.

:class:`Writer` and :class:`Reader` wrap a growing buffer / memoryview with
these primitives.  They raise :class:`~repro.errors.CodecError` on malformed
input rather than ``struct.error`` so callers deal with one exception type.
"""

from __future__ import annotations

import struct

from repro.errors import CodecError


class Writer:
    """Append-only serializer producing canonical bytes."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def write_bytes_raw(self, data: bytes) -> "Writer":
        """Append raw bytes with no length prefix (fixed-size fields)."""
        self._chunks.append(bytes(data))
        return self

    def write_varint(self, value: int) -> "Writer":
        """Append an unsigned LEB128 varint."""
        if value < 0:
            raise CodecError(f"varint must be non-negative, got {value}")
        out = bytearray()
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        self._chunks.append(bytes(out))
        return self

    def write_bytes(self, data: bytes) -> "Writer":
        """Append a length-prefixed byte string."""
        self.write_varint(len(data))
        self._chunks.append(bytes(data))
        return self

    def write_str(self, text: str) -> "Writer":
        """Append a length-prefixed UTF-8 string."""
        return self.write_bytes(text.encode("utf-8"))

    def write_float(self, value: float) -> "Writer":
        """Append an 8-byte IEEE-754 double."""
        self._chunks.append(struct.pack(">d", value))
        return self

    def write_bool(self, value: bool) -> "Writer":
        return self.write_varint(1 if value else 0)

    def getvalue(self) -> bytes:
        """Return the serialized bytes."""
        return b"".join(self._chunks)

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks)


class Reader:
    """Sequential deserializer over a bytes buffer."""

    def __init__(self, data: bytes) -> None:
        self._data = memoryview(data)
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Number of unread bytes."""
        return len(self._data) - self._pos

    def _take(self, count: int) -> memoryview:
        if count < 0 or self._pos + count > len(self._data):
            raise CodecError(
                f"buffer underrun: need {count} bytes, have {self.remaining}"
            )
        view = self._data[self._pos : self._pos + count]
        self._pos += count
        return view

    def read_bytes_raw(self, count: int) -> bytes:
        """Read exactly ``count`` raw bytes."""
        return bytes(self._take(count))

    def read_varint(self) -> int:
        """Read an unsigned LEB128 varint in its one minimal encoding.

        A trailing zero group (``81 00`` for 1) would decode to a value whose
        re-encoding differs from the bytes received, so it is refused.
        """
        result = 0
        shift = 0
        while True:
            if self._pos >= len(self._data):
                raise CodecError("buffer underrun while reading varint")
            byte = self._data[self._pos]
            self._pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if byte == 0 and shift:
                    raise CodecError("non-minimal varint encoding")
                return result
            shift += 7
            if shift > 70:
                raise CodecError("varint too long")

    def read_bytes(self) -> bytes:
        """Read a length-prefixed byte string."""
        length = self.read_varint()
        return self.read_bytes_raw(length)

    def read_str(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        raw = self.read_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in string field") from exc

    def read_float(self) -> float:
        """Read an 8-byte IEEE-754 double."""
        return struct.unpack(">d", self._take(8))[0]

    def read_bool(self) -> bool:
        value = self.read_varint()
        if value not in (0, 1):
            raise CodecError(f"invalid bool encoding {value}")
        return bool(value)

    def expect_end(self) -> None:
        """Raise unless the whole buffer was consumed (canonical decode)."""
        if self.remaining:
            raise CodecError(f"{self.remaining} trailing bytes after decode")


def encoded_size_varint(value: int) -> int:
    """Return the encoded size of a varint without materializing it."""
    if value < 0:
        raise CodecError(f"varint must be non-negative, got {value}")
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size

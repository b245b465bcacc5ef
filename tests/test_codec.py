"""Unit and property tests for the binary codec."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.chain.codec import Reader, Writer, encoded_size_varint
from repro.errors import CodecError


class TestVarint:
    def test_zero(self):
        data = Writer().write_varint(0).getvalue()
        assert data == b"\x00"
        assert Reader(data).read_varint() == 0

    def test_single_byte_boundary(self):
        assert len(Writer().write_varint(127).getvalue()) == 1
        assert len(Writer().write_varint(128).getvalue()) == 2

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            Writer().write_varint(-1)

    def test_truncated_raises(self):
        data = Writer().write_varint(300).getvalue()
        with pytest.raises(CodecError):
            Reader(data[:1]).read_varint()

    def test_overlong_rejected(self):
        with pytest.raises(CodecError):
            Reader(b"\x80" * 11 + b"\x01").read_varint()

    @pytest.mark.parametrize(
        "data", [b"\x80\x00", b"\x81\x00", b"\xff\x80\x00", b"\x80" * 10 + b"\x00"]
    )
    def test_non_minimal_encoding_rejected(self, data):
        with pytest.raises(CodecError, match="non-minimal"):
            Reader(data).read_varint()

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip(self, value):
        data = Writer().write_varint(value).getvalue()
        reader = Reader(data)
        assert reader.read_varint() == value
        reader.expect_end()

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_encoded_size_matches(self, value):
        assert encoded_size_varint(value) == len(Writer().write_varint(value).getvalue())


class TestBytesAndStrings:
    @given(st.binary(max_size=512))
    def test_bytes_roundtrip(self, payload):
        data = Writer().write_bytes(payload).getvalue()
        assert Reader(data).read_bytes() == payload

    @given(st.text(max_size=128))
    def test_str_roundtrip(self, text):
        data = Writer().write_str(text).getvalue()
        assert Reader(data).read_str() == text

    def test_invalid_utf8_raises(self):
        data = Writer().write_bytes(b"\xff\xfe").getvalue()
        with pytest.raises(CodecError):
            Reader(data).read_str()

    def test_raw_bytes_no_prefix(self):
        data = Writer().write_bytes_raw(b"abc").getvalue()
        assert data == b"abc"

    def test_underrun_raises(self):
        with pytest.raises(CodecError):
            Reader(b"ab").read_bytes_raw(3)


class TestFloatsAndBools:
    @given(st.floats(allow_nan=False))
    def test_float_roundtrip(self, value):
        data = Writer().write_float(value).getvalue()
        assert Reader(data).read_float() == value

    @given(st.booleans())
    def test_bool_roundtrip(self, flag):
        data = Writer().write_bool(flag).getvalue()
        assert Reader(data).read_bool() is flag

    def test_bad_bool_encoding(self):
        with pytest.raises(CodecError):
            Reader(b"\x02").read_bool()


class TestReaderDiscipline:
    def test_expect_end_rejects_trailing(self):
        reader = Reader(b"\x00\x00")
        reader.read_varint()
        with pytest.raises(CodecError):
            reader.expect_end()

    def test_remaining_tracks_position(self):
        reader = Reader(b"\x01\x02\x03")
        assert reader.remaining == 3
        reader.read_bytes_raw(2)
        assert reader.remaining == 1

    @given(st.lists(st.binary(max_size=32), max_size=8))
    def test_sequence_roundtrip(self, chunks):
        writer = Writer()
        writer.write_varint(len(chunks))
        for chunk in chunks:
            writer.write_bytes(chunk)
        reader = Reader(writer.getvalue())
        count = reader.read_varint()
        assert [reader.read_bytes() for _ in range(count)] == chunks
        reader.expect_end()

    def test_writer_len(self):
        writer = Writer()
        writer.write_bytes_raw(b"abcd")
        assert len(writer) == 4

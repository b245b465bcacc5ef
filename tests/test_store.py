"""Tests for chain persistence."""

from __future__ import annotations

import pytest

from repro.chain.forkchoice import GHOSTRule
from repro.chain.store import FORMAT_VERSION, deserialize_tree, serialize_tree
from repro.consensus.powfamily import MiningNode, themis_config
from repro.core.geost import GEOSTRule
from repro.errors import CodecError
from repro.sim.fleet import build_stack

from tests.conftest import FAST, TEST_FLEET, TreeBuilder, keypair


def build_forked_tree(genesis):
    builder = TreeBuilder(genesis)
    a = builder.extend(genesis, 0)
    b = builder.extend(a, 1)
    builder.extend(a, 2)  # fork
    builder.extend(b, 3)
    return builder.tree


class TestRoundTrip:
    def test_blocks_preserved(self, genesis):
        tree = build_forked_tree(genesis)
        restored = deserialize_tree(serialize_tree(tree))
        assert len(restored) == len(tree)
        for block in tree.iter_blocks():
            assert restored.has_block(block.block_id)

    def test_arrival_order_preserved(self, genesis):
        """GEOST's first-received tie-break must survive a restart."""
        tree = build_forked_tree(genesis)
        restored = deserialize_tree(serialize_tree(tree))
        for block in tree.iter_blocks():
            bid = block.block_id
            assert restored.arrival_time(bid) == tree.arrival_time(bid)
            assert restored.children(bid) == tree.children(bid)

    def test_fork_choice_agrees_after_restore(self, genesis):
        tree = build_forked_tree(genesis)
        restored = deserialize_tree(serialize_tree(tree))
        members = [keypair(i).public.fingerprint() for i in range(4)]
        assert GHOSTRule().head(restored) == GHOSTRule().head(tree)
        rule = GEOSTRule(lambda: members)
        assert rule.head(restored) == rule.head(tree)

    def test_subtree_stats_rebuilt(self, genesis):
        tree = build_forked_tree(genesis)
        restored = deserialize_tree(serialize_tree(tree))
        for block in tree.iter_blocks():
            assert restored.subtree_size(block.block_id) == tree.subtree_size(
                block.block_id
            )


class TestFormatDiscipline:
    def test_bad_magic_rejected(self, genesis):
        data = serialize_tree(build_forked_tree(genesis))
        with pytest.raises(CodecError):
            deserialize_tree(b"XXXX" + data[4:])

    def test_bad_version_rejected(self, genesis):
        data = bytearray(serialize_tree(build_forked_tree(genesis)))
        data[4] = FORMAT_VERSION + 1
        with pytest.raises(CodecError):
            deserialize_tree(bytes(data))

    def test_trailing_garbage_rejected(self, genesis):
        data = serialize_tree(build_forked_tree(genesis))
        with pytest.raises(CodecError):
            deserialize_tree(data + b"\x00")

    def test_truncated_stream_rejected(self, genesis):
        """Every possible truncation point must fail loudly, never load."""
        data = serialize_tree(build_forked_tree(genesis))
        for cut in (3, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(CodecError):
                deserialize_tree(data[:cut])

    def test_future_format_version_rejected(self, genesis):
        """A stream from a newer build must be refused, not misparsed."""
        tree = build_forked_tree(genesis)
        data = bytearray(serialize_tree(tree))
        data[4] = FORMAT_VERSION + 7
        with pytest.raises(CodecError, match="version"):
            deserialize_tree(bytes(data))

    def test_duplicate_block_payload_rejected(self, genesis):
        """A corrupt stream repeating a block raises CodecError, not a
        tree-internal DuplicateBlockError."""
        from repro.chain.codec import Reader, Writer

        tree = build_forked_tree(genesis)
        reader = Reader(serialize_tree(tree))
        magic = reader.read_bytes_raw(4)
        version = reader.read_varint()
        genesis_bytes = reader.read_bytes()
        count = reader.read_varint()
        entries = [
            (reader.read_bytes(), reader.read_float()) for _ in range(count)
        ]
        writer = Writer()
        writer.write_bytes_raw(magic)
        writer.write_varint(version)
        writer.write_bytes(genesis_bytes)
        writer.write_varint(count + 1)
        for block_bytes, arrival in entries:
            writer.write_bytes(block_bytes)
            writer.write_float(arrival)
        writer.write_bytes(entries[0][0])  # repeat the first block
        writer.write_float(entries[0][1])
        with pytest.raises(CodecError, match="rejected"):
            deserialize_tree(writer.getvalue())

    def test_simulation_tree_roundtrip(self):
        """A real simulated tree (forks, signatures absent) round-trips."""
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=12, params=FAST, **TEST_FLEET)
        stack.run_to_height(30)
        tree = stack.nodes[0].tree
        restored = deserialize_tree(serialize_tree(tree))
        assert len(restored) == len(tree)
        assert GHOSTRule().head(restored) == GHOSTRule().head(tree)

"""Chain persistence: the block-tree snapshot format.

A consortium node must survive restarts with its local block tree (and the
reception metadata GEOST's first-received tie-break depends on) intact.  The
store serializes the tree as a length-prefixed stream through the canonical
codec:

    magic ‖ version ‖ genesis-block ‖ count ‖ (block ‖ arrival_time)*

Attached blocks are written in insertion order, so reloading replays them
through :meth:`BlockTree.add_block` and reconstructs identical children
ordering, arrival sequence numbers and subtree statistics.  Buffered orphans
follow them, so reloading buffers them again and a parent that arrives after
the snapshot still attaches them.
"""

from __future__ import annotations

from repro.chain.block import Block
from repro.chain.blocktree import BlockTree
from repro.chain.codec import Reader, Writer
from repro.errors import ChainError, CodecError

#: File magic and current format version.
MAGIC = b"THMS"
FORMAT_VERSION = 1


def serialize_tree(tree: BlockTree) -> bytes:
    """Serialize a block tree (blocks + arrival metadata) to bytes."""
    blocks = list(tree.iter_blocks())
    entries = [(block, tree.arrival_time(block.block_id)) for block in blocks[1:]]
    entries += tree.iter_orphans()
    writer = Writer()
    writer.write_bytes_raw(MAGIC)
    writer.write_varint(FORMAT_VERSION)
    writer.write_bytes(blocks[0].to_bytes())
    writer.write_varint(len(entries))
    for block, arrival in entries:
        writer.write_bytes(block.to_bytes())
        writer.write_float(arrival)
    return writer.getvalue()


def deserialize_tree(
    data: bytes, finality_window: int | None = 32
) -> BlockTree:
    """Rebuild a block tree from :func:`serialize_tree` output."""
    reader = Reader(data)
    magic = reader.read_bytes_raw(4)
    if magic != MAGIC:
        raise CodecError(f"bad chain-store magic {magic!r}")
    version = reader.read_varint()
    if version != FORMAT_VERSION:
        raise CodecError(f"unsupported chain-store version {version}")
    genesis = Block.from_bytes(reader.read_bytes())
    tree = BlockTree(genesis, finality_window=finality_window)
    count = reader.read_varint()
    for index in range(count):
        block = Block.from_bytes(reader.read_bytes())
        arrival = reader.read_float()
        try:
            tree.add_block(block, arrival)
        except ChainError as exc:
            # A duplicate or otherwise unplaceable payload means the stream
            # itself is corrupt; surface it as a decode failure, not as a
            # tree-internal error the caller never handed a tree to.
            raise CodecError(
                f"chain-store block {index + 1}/{count} rejected: {exc}"
            ) from exc
    reader.expect_end()
    return tree

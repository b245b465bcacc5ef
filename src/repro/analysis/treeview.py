"""Block-tree inspection and rendering.

Debugging fork behaviour needs to *see* the tree: which blocks forked, who
produced what, where the main chain went.  :func:`chain_summary` tabulates
per-producer statistics for a chain, :func:`find_forks` lists every fork
point with its competing subtrees, and :func:`head_lineage` prints the
blocks behind a head.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.chain.block import Block
from repro.chain.blocktree import BlockTree

#: Maps a producer fingerprint to a display name.
NameFn = Callable[[bytes], str]


def _default_name(producer: bytes) -> str:
    return producer.hex()[:8]


@dataclass(frozen=True)
class ForkPoint:
    """A block with multiple children: where a fork opened."""

    block_id: bytes
    height: int
    branches: tuple[tuple[bytes, int], ...]  # (child id, subtree size)

    @property
    def width(self) -> int:
        """Number of competing branches."""
        return len(self.branches)


def find_forks(tree: BlockTree) -> list[ForkPoint]:
    """Every fork point in the tree, ordered by height."""
    forks: list[ForkPoint] = []
    stack = [tree.genesis_id]
    while stack:
        block_id = stack.pop()
        children = tree.children(block_id)
        if len(children) > 1:
            forks.append(
                ForkPoint(
                    block_id=block_id,
                    height=tree.get(block_id).height,
                    branches=tuple(
                        (child, tree.subtree_size(child)) for child in children
                    ),
                )
            )
        stack.extend(children)
    forks.sort(key=lambda f: f.height)
    return forks


def chain_summary(
    chain: Sequence[Block], name_of: NameFn = _default_name
) -> str:
    """Tabulate per-producer counts and timing over a main chain."""
    body = [b for b in chain if b.height > 0]
    if not body:
        return "(empty chain)"
    counts = Counter(b.producer for b in body)
    total = len(body)
    duration = body[-1].header.timestamp - chain[0].header.timestamp
    interval = duration / total if total else 0.0
    lines = [
        f"blocks: {total}  span: {duration:.1f}s  mean interval: {interval:.2f}s",
        f"{'producer':>12s} {'blocks':>7s} {'share':>7s}",
    ]
    for producer, count in counts.most_common():
        lines.append(
            f"{name_of(producer):>12s} {count:>7d} {count / total:>7.2%}"
        )
    return "\n".join(lines)


def head_lineage(
    tree: BlockTree, head_id: bytes, depth: int = 10, name_of: NameFn = _default_name
) -> str:
    """The last ``depth`` blocks behind a head, one line each (tip first)."""
    lines = []
    cursor: bytes | None = head_id
    for _ in range(depth):
        if cursor is None:
            break
        block = tree.get(cursor)
        siblings = len(tree.blocks_at_height(block.height)) - 1
        fork_note = f"  (+{siblings} rival{'s' if siblings > 1 else ''})" if siblings else ""
        producer = name_of(block.producer) if block.height > 0 else "genesis"
        lines.append(
            f"h={block.height:<5d} {block.block_id.hex()[:10]} by {producer}{fork_note}"
        )
        cursor = tree.parent(cursor)
    return "\n".join(lines)

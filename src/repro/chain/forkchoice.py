"""Fork-choice rules: longest-chain and GHOST.

§V-A contrasts "the longest chain rule [16] or the heaviest chain rule
(GHOST) [28]" with the paper's GEOST; all three share the same structure — a
greedy walk from genesis picking one child per fork — and differ only in the
per-child priority key.  This module provides the shared walk plus the two
baseline rules; GEOST itself lives in :mod:`repro.core.geost` because its key
depends on Themis' equality bookkeeping.

All rules are deterministic given a tree: ties after every protocol-defined
key fall back to local reception order, mirroring "the node will choose the
leaf block of the first received sub-tree" (§V-B).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

from repro.chain.block import Block
from repro.chain.blocktree import BlockTree

#: A priority key: higher tuples win. Must embed its own tie-breaks.
ChildKey = Callable[[BlockTree, bytes], tuple]


class ForkChoiceRule(ABC):
    """Interface every main-chain consensus rule implements."""

    #: Human-readable rule name used in metrics and logs.
    name: str = "abstract"

    @abstractmethod
    def select_child(self, tree: BlockTree, children: Sequence[bytes]) -> bytes:
        """Pick the winning child among ``children`` of a forked block."""

    def head(self, tree: BlockTree, start: bytes | None = None) -> bytes:
        """Walk to the rule's chain head (Alg. 1 structure).

        ``start`` lets callers begin at a block already known to be final
        (every candidate head descends from it), skipping the settled prefix;
        the default walks from genesis.
        """
        cursor = start if start is not None else tree.genesis_id
        while True:
            children = tree.children_view(cursor)
            if not children:
                return cursor
            if len(children) == 1:
                cursor = children[0]
            else:
                cursor = self.select_child(tree, children)

    def main_chain(self, tree: BlockTree) -> list[Block]:
        """The full main chain, genesis through head."""
        return tree.chain_to(self.head(tree))


class _KeyedRule(ForkChoiceRule):
    """A rule fully defined by a per-child priority key."""

    def __init__(self, key: ChildKey, name: str) -> None:
        self._key = key
        self.name = name

    def select_child(self, tree: BlockTree, children: Sequence[bytes]) -> bytes:
        return max(children, key=lambda child: self._key(tree, child))


def subtree_max_height(tree: BlockTree, block_id: bytes) -> int:
    """Height of the deepest descendant of ``block_id`` (DFS)."""
    best = tree.get(block_id).height
    stack = [block_id]
    while stack:
        current = stack.pop()
        height = tree.get(current).height
        if height > best:
            best = height
        stack.extend(tree.children_view(current))
    return best


class LongestChainRule(_KeyedRule):
    """Bitcoin's rule: follow the child leading to the tallest chain.

    Ties on attainable height break by earliest local reception (negated
    arrival sequence number, since higher key wins).
    """

    def __init__(self) -> None:
        super().__init__(
            key=lambda tree, child: (
                subtree_max_height(tree, child),
                -tree.arrival_seq(child),
            ),
            name="longest-chain",
        )


class GHOSTRule(_KeyedRule):
    """GHOST [28]: follow the child with the heaviest (largest) subtree.

    Ties on subtree block count break by earliest local reception.
    """

    def __init__(self) -> None:
        super().__init__(
            key=lambda tree, child: (
                tree.subtree_size(child),
                -tree.arrival_seq(child),
            ),
            name="ghost",
        )

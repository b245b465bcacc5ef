"""GEOST — the Greedy most Equal-Observed Sub-Tree rule (§V, Alg. 1).

GEOST is the same greedy genesis-to-leaf walk as GHOST, with a richer child
priority at forks:

1. largest subtree block count (the "observed" weight — first received by the
   most nodes);
2. lowest variance of block-producing frequency ``σ_f²`` — the *most equal
   chain* (§V-B);
3. earliest local reception ("the node will choose the leaf block of the
   first received sub-tree").

The variance in step 2 is computed over the producer histogram of the *chain
the choice would finalize*: the already-walked prefix (main chain up to the
fork) plus the candidate subtree.  Scoring whole candidate chains, rather than
subtrees in isolation, is what "the chain with the highest Equality" means —
a subtree extending an under-represented producer's history wins over an
equally-sized one that piles onto a frequent producer, which is exactly the
effect Fig. 2's example relies on (block 4C's chain beats 3B's).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence

from repro.chain.blocktree import BlockTree
from repro.chain.forkchoice import ForkChoiceRule

#: Supplies the current consensus node set (fingerprints) for Eq. 1's
#: denominator.  A callable so membership changes (§IV-C) are picked up.
MemberSetFn = Callable[[], Sequence[bytes]]


class GEOSTRule(ForkChoiceRule):
    """Alg. 1 with the σ_f² tie-break of §V-B."""

    name = "geost"

    def __init__(self, members_fn: MemberSetFn) -> None:
        self._members_fn = members_fn

    def _chain_variance(
        self, tree: BlockTree, prefix_counts: Counter, child: bytes
    ) -> float:
        """σ_f² of (walked prefix + candidate subtree), Eq. 1.

        Closed form over producer counts ``q_i`` with ``Δ = Σ q_i``:
        ``Var({q_i/Δ}) = (Σ q_i²)/(n·Δ²) − 1/n²`` — one pass over the counts,
        with no frequency vector built, because this sits on the fork-choice
        hot path.
        """
        members = self._members_fn()
        n = len(members)
        if n == 0:
            return 0.0
        subtree = tree.subtree_producers_view(child)
        # Δ counts every block, including any produced by since-removed
        # members; the variance sums only over the current member set.
        total = sum(prefix_counts.values()) + sum(subtree.values())
        if total == 0:
            return 0.0
        sum_sq = 0
        member_total = 0
        for member in members:
            q = prefix_counts.get(member, 0) + subtree.get(member, 0)
            member_total += q
            sum_sq += q * q
        mean = member_total / (n * total)
        return sum_sq / (n * total * total) - mean * mean

    def select_child(self, tree: BlockTree, children: Sequence[bytes]) -> bytes:
        """Pick among fork children given only the tree (ABC interface).

        Reconstructs the prefix histogram by walking back to genesis; the
        incremental :meth:`head` avoids this cost when traversing a whole
        tree.
        """
        parent = tree.parent(children[0])
        prefix: Counter = Counter()
        if parent is not None:
            for block in tree.chain_to(parent):
                if block.height > 0:
                    prefix[block.producer] += 1
        return self._select(tree, children, prefix)

    def _select(
        self, tree: BlockTree, children: Sequence[bytes], prefix: Counter
    ) -> bytes:
        """§V-B priority cascade, computing each key only when needed.

        Subtree size decides almost every historical fork, so the σ_f²
        tie-break (the expensive key) runs only among size-tied children.
        """
        best_size = -1
        tied: list[bytes] = []
        for child in children:
            size = tree.subtree_size(child)
            if size > best_size:
                best_size = size
                tied = [child]
            elif size == best_size:
                tied.append(child)
        if len(tied) == 1:
            return tied[0]
        best = tied[0]
        best_key = (-self._chain_variance(tree, prefix, best), -tree.arrival_seq(best))
        for child in tied[1:]:
            key = (-self._chain_variance(tree, prefix, child), -tree.arrival_seq(child))
            if key > best_key:
                best, best_key = child, key
        return best

    def head(
        self,
        tree: BlockTree,
        start: bytes | None = None,
        prefix: Counter | None = None,
    ) -> bytes:
        """Alg. 1: greedy walk accumulating the prefix histogram.

        ``start``/``prefix`` let callers resume from a finalized block whose
        genesis-to-start producer histogram is already known (the equality
        tie-break scores whole chains, so the prefix must cover the skipped
        segment).
        """
        cursor = start if start is not None else tree.genesis_id
        prefix = Counter() if prefix is None else Counter(prefix)
        while True:
            children = tree.children_view(cursor)
            if not children:
                return cursor
            if len(children) == 1:
                cursor = children[0]
            else:
                cursor = self._select(tree, children, prefix)
            header = tree.get(cursor).header  # not Block's properties: hot loop
            if header.height > 0:
                prefix[header.producer] += 1

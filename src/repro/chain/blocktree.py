"""The local block tree.

§III: "Valid blocks will be added to the local block tree"; forks appear as
multiple children of one parent.  Every fork-choice rule in this library
(longest-chain, GHOST, GEOST) is a pure function over this structure, so the
tree maintains exactly the statistics the rules need:

* children of each block, ordered by local *reception order* — the paper's
  final tie-break is "the sub-tree first received by the node" (§V-B);
* subtree block counts — GHOST weight and GEOST's primary key;
* subtree producer histograms — GEOST's variance-of-frequency key (§V-B);
* per-height index — fork-rate and fork-duration metrics (§VII-C).

Blocks that arrive before their parent (possible under gossip reordering) are
buffered as orphans and attached automatically once the parent is inserted,
each through the same admission check as a block delivered in order.
Insertion is O(1); the subtree statistics are computed when a rule asks for
them — at forks only — by one walk over the asked block's subtree.

What a block *is* (its parent, height, producer, children) does not depend on
who holds it, so it lives once per run in a :class:`BlockArena` that every
node's tree shares; a :class:`BlockTree` is one node's *view* of the arena:
which blocks it holds, and when and in which order it received them.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import cast
from weakref import WeakSet

from repro.chain.block import Block
from repro.errors import ChainError, DuplicateBlockError

#: Marks are 32-bit: a taller height (only a block inserted without an
#: admission check can claim one) is stored as this, which compares the same
#: against any window limit below it.
_MARK_MAX = 2**31 - 1


def _append(links: array, head: int, index: int) -> None:
    """Put ``index`` at the end of the linked list that starts at ``head``."""
    while links[head] >= 0:
        head = links[head]
    links[head] = index


class BlockArena:
    """What is per block, stored once for every view of a run.

    The first view to insert a block gives it the next int index; the arena
    keeps its id, its parent's index, height and producer.  A block's
    children, and the blocks at one height, are linked lists threaded
    through index columns in first-seen order: ``first_child[i]`` →
    ``next_sibling`` → …, and ``by_height[h]`` → ``next_at_height`` → …
    (``-1`` ends a list), so nothing per block is a Python container.
    Blocks are content, so views with different member sets or switches
    share one arena just as well.  Index 0 is genesis.

    Every view's columns cover ``capacity`` indices: the arena widens them
    all at once when it runs out, so no read has to check a column's length.
    """

    __slots__ = (
        "index",
        "ids",
        "parents",
        "heights",
        "producers",
        "first_child",
        "next_sibling",
        "by_height",
        "next_at_height",
        "capacity",
        "_views",
    )

    def __init__(self, genesis: Block) -> None:
        self.index: dict[bytes, int] = {}
        self.ids: list[bytes] = []
        self.parents = array("i")  # -1 for genesis
        self.heights: list[int] = []
        self.producers: list[bytes] = []
        # A list, not an array: every level of a rule walk reads it, and a
        # list hands back the stored int where an array boxes a new one.
        self.first_child: list[int] = []
        self.next_sibling = array("i")
        self.by_height: dict[int, int] = {}  # height → its first block
        self.next_at_height = array("i")
        self.capacity = 0
        self._views: WeakSet[BlockTree] = WeakSet()
        self.add(genesis, -1)

    def __len__(self) -> int:
        return len(self.ids)

    def join(self, view: BlockTree) -> None:
        """Register a view: from now on its columns grow with the arena."""
        self._views.add(view)
        view._widen(self.capacity)

    def add(self, block: Block, parent: int) -> int:
        """Give a block no view has held yet the next index, under ``parent``."""
        index = self.index[block.block_id] = len(self.ids)
        self.ids.append(block.block_id)
        self.parents.append(parent)
        self.heights.append(block.height)
        self.producers.append(block.producer)
        self.first_child.append(-1)
        self.next_sibling.append(-1)
        self.next_at_height.append(-1)
        if parent >= 0:
            if self.first_child[parent] < 0:
                self.first_child[parent] = index
            else:
                _append(self.next_sibling, self.first_child[parent], index)
        first = self.by_height.setdefault(block.height, index)
        if first != index:
            _append(self.next_at_height, first, index)
        if index == self.capacity:
            self.capacity += (self.capacity >> 3) + 16
            for view in self._views:
                view._widen(self.capacity)
        return index


class BlockTree:
    """One node's view of a :class:`BlockArena`, with on-demand subtree
    statistics.

    What differs between views is kept in columns indexed by arena index:
    the block object (``None``: not in this view; the id commits to the
    header only, so a copy may differ in signature or body), the arrival
    sequence number (``-1``: not in this view), the arrival time and the
    ``mark`` (below) — plus the orphan buffer and the tallest height.  A
    view's children and per-height lists are the arena's, filtered to the
    blocks it holds and ordered by its own arrival sequence.  A tree built
    without an ``arena`` makes a private one (same code path, one view).

    ``finality_window`` bounds what a statistics query *counts*, not what an
    insertion walks (an insertion walks nothing).  A descendant ``d`` counts
    toward a block ``a`` iff ``a`` is its parent or ``a`` sat no more than
    ``finality_window`` heights below the tallest block seen when ``d``
    arrived (``a.height >= d.mark - finality_window``; ``mark`` is that
    tallest height).  Blocks deeper than that are final for every rule in
    this library (fork durations are 2–3 heights, Fig. 8; Prop. 1 bounds the
    expected convergence time), so their counters freeze: exact for
    subtrees that stopped growing, lower bounds for the winning subtree,
    preserving every comparison's outcome.  Pass ``None`` to disable the
    cutoff (exact statistics everywhere).

    These are exactly the counters an eager per-insertion walk up the
    ancestor path would maintain (``tests/ref_blocktree.py`` keeps that
    implementation as the differential oracle), and they rely on heights
    being contiguous along a path, which block validation enforces.  The
    default window of 32 is >10× the deepest fork observed in any scenario
    this library simulates (worst case: partition halves diverging ~12
    heights before healing) and bounds a query at a live fork to a few
    dozen entries.
    """

    def __init__(
        self,
        genesis: Block,
        finality_window: int | None = 32,
        arena: BlockArena | None = None,
    ) -> None:
        if arena is None:
            arena = BlockArena(genesis)
        elif arena.ids[0] != genesis.block_id:
            raise ChainError("the arena was built on another genesis")
        self._arena = arena
        # The arena's lists never change identity: bound once, read hot.
        self._index, self._ids = arena.index, arena.ids
        self._first_child, self._next_sibling = arena.first_child, arena.next_sibling
        self._genesis_id = genesis.block_id
        self._blocks: list[Block | None] = []
        self._seq = array("i")
        self._time = array("d")
        self._mark = array("i")
        self._next_seq = 0
        self._orphans: dict[bytes, list[tuple[Block, float]]] = defaultdict(list)
        self._orphan_count = 0
        self.finality_window = finality_window
        self._max_height = 0
        # Statistics answered since the last insertion: a rule reads a fork
        # child's size, then its histogram.
        self._stats: dict[bytes, tuple[int, dict[bytes, int]]] = {}
        arena.join(self)
        self._insert(genesis, 0, -1, arrival_time=genesis.header.timestamp)

    # -- insertion -------------------------------------------------------------

    def _insert(
        self, block: Block, index: int | None, parent: int, arrival_time: float
    ) -> None:
        """Hold ``block`` (arena ``index``, ``None`` if it has none yet)."""
        if index is None:
            index = self._arena.add(block, parent)
        height = block.height
        if height > self._max_height:
            self._max_height = height
        self._blocks[index] = block
        self._seq[index] = self._next_seq
        self._next_seq += 1
        self._time[index] = arrival_time
        mark = self._max_height
        self._mark[index] = mark if mark < _MARK_MAX else _MARK_MAX
        if self._stats:
            self._stats.clear()

    def _widen(self, size: int) -> None:
        """Extend the columns to ``size`` indices (see :class:`BlockArena`)."""
        extra = size - len(self._blocks)
        self._blocks += [None] * extra
        self._seq += array("i", [-1]) * extra
        self._time += array("d", [0.0]) * extra
        self._mark += array("i", [0]) * extra

    def add_block(
        self,
        block: Block,
        arrival_time: float,
        admit: Callable[[Block], bool] | None = None,
    ) -> bool:
        """Insert a block; returns ``True`` if attached, ``False`` if orphaned
        or refused.

        An orphan (parent not yet known) is buffered and attached when its
        parent arrives; its reception order is assigned at attachment time,
        which matches how a real node would perceive "first received".
        ``admit`` is asked just before each insertion, this block's and each
        orphan's alike; a refused block is dropped with the orphans buffered
        under it.  Raises :class:`DuplicateBlockError` on re-insertion.
        """
        block_id = block.block_id
        index = self._index.get(block_id)
        if index is not None and self._blocks[index] is not None:
            raise DuplicateBlockError(f"block {block_id.hex()[:12]} already in tree")
        parent = self._index.get(block.parent_hash)
        if parent is None or self._blocks[parent] is None:
            self._orphans[block.parent_hash].append((block, arrival_time))
            self._orphan_count += 1
            return False
        if admit is not None and not admit(block):
            self._drop_orphans(block_id)
            return False
        self._insert(block, index, parent, arrival_time)
        if self._orphans:
            self._attach_orphans(block_id, arrival_time, admit)
        return True

    def _attach_orphans(
        self,
        parent_id: bytes,
        arrival_time: float,
        admit: Callable[[Block], bool] | None,
    ) -> None:
        """Attach the buffered descendants of ``parent_id``, depth first in
        buffer order, from an explicit stack (a chain of any length)."""
        pending = self._orphans.pop(parent_id, [])[::-1]
        while pending:
            orphan, orphan_time = pending.pop()
            self._orphan_count -= 1
            index = self._index.get(orphan.block_id)
            if index is not None and self._blocks[index] is not None:
                continue  # buffered twice
            if admit is not None and not admit(orphan):
                self._drop_orphans(orphan.block_id)
                continue
            parent = self._index[orphan.parent_hash]
            self._insert(orphan, index, parent, max(orphan_time, arrival_time))
            pending += reversed(self._orphans.pop(orphan.block_id, []))

    def _drop_orphans(self, parent_id: bytes) -> None:
        """Forget every buffered descendant of ``parent_id``."""
        doomed = [parent_id]
        while doomed:
            children = self._orphans.pop(doomed.pop(), [])
            self._orphan_count -= len(children)
            doomed += (orphan.block_id for orphan, _ in children)

    # -- arena indices -----------------------------------------------------------

    def _at(self, block_id: bytes) -> int:
        """Arena index of a block in this view (KeyError if absent)."""
        index = self._index[block_id]
        if self._blocks[index] is None:
            raise KeyError(block_id)
        return index

    def _received(self, head: int, links: array) -> list[int]:
        """The indices on an arena list (``head`` → ``links`` → …) that this
        view holds, in its reception order."""
        held = self._blocks
        mine = []
        while head >= 0:
            if held[head] is not None:
                mine.append(head)
            head = links[head]
        if len(mine) > 1:
            mine.sort(key=self._seq.__getitem__)
        return mine

    def _kids(self, index: int) -> list[int]:
        """Children of ``index`` in this view, in its reception order."""
        return self._received(self._first_child[index], self._next_sibling)

    def _arrival_order(self) -> list[int]:
        """Indices of the held blocks, in reception order."""
        order = [0] * self._next_seq
        for index, seq in enumerate(self._seq):
            if seq >= 0:
                order[seq] = index
        return order

    # -- queries ---------------------------------------------------------------

    @property
    def genesis_id(self) -> bytes:
        """Identifier of the genesis block."""
        return self._genesis_id

    def __contains__(self, block_id: bytes) -> bool:
        index = self._index.get(block_id)
        return index is not None and self._blocks[index] is not None

    has_block = __contains__

    def __len__(self) -> int:
        """Number of attached blocks, genesis included."""
        return self._next_seq

    @property
    def orphan_count(self) -> int:
        """Number of buffered blocks still waiting for a parent."""
        return self._orphan_count

    def get(self, block_id: bytes) -> Block:
        """Return the block for an identifier (KeyError if absent)."""
        block = self._blocks[self._index[block_id]]
        if block is None:
            raise KeyError(block_id)
        return block

    def children(self, block_id: bytes) -> list[bytes]:
        """Children of a block, in local reception order (§V-B tie-break)."""
        return list(self.children_view(block_id))

    def children_view(self, block_id: bytes) -> Sequence[bytes]:
        """A block's children for reading only (do not mutate).

        The fork-choice walk reads every level's child list once per rule
        evaluation, so the common case skips the general filter-and-sort:
        one child in the whole run is a one-element tuple.
        """
        # ``_at`` inlined, and the one-child case of ``_kids``.
        index = self._index[block_id]
        held = self._blocks
        if held[index] is None:
            raise KeyError(block_id)
        kid = self._first_child[index]
        if kid < 0:
            return ()
        if self._next_sibling[kid] < 0:
            return (self._ids[kid],) if held[kid] is not None else ()
        ids = self._ids
        return [ids[kid] for kid in self._kids(index)]

    def parent(self, block_id: bytes) -> bytes | None:
        """Parent id, or ``None`` for genesis."""
        parent = self._arena.parents[self._at(block_id)]
        return self._ids[parent] if parent >= 0 else None

    def arrival_seq(self, block_id: bytes) -> int:
        """Local reception sequence number (lower = received earlier)."""
        return self._seq[self._at(block_id)]

    def arrival_time(self, block_id: bytes) -> float:
        """Local reception timestamp."""
        return self._time[self._at(block_id)]

    def _subtree_stats(self, block_id: bytes) -> tuple[int, dict[bytes, int]]:
        """(block count, producer histogram) of a subtree, window applied."""
        stats = self._stats.get(block_id)
        if stats is not None:
            return stats
        root = self._at(block_id)
        mark, producers = self._mark, self._arena.producers
        window = self.finality_window
        limit = self._arena.heights[root] + window if window is not None else float("inf")
        size = 1
        # Genesis (index 0) has no producer; every other root counts its own.
        counts: dict[bytes, int] = {producers[root]: 1} if root else {}
        # A child always counts toward its parent; deeper descendants count
        # while ``mark <= limit``.  Marks never decrease down a path, so a
        # block past the limit hides nothing that counts.
        pending = [root]
        while pending:
            index = pending.pop()
            for child in self._kids(index):
                within = mark[child] <= limit
                if within or index == root:
                    size += 1
                    producer = producers[child]
                    counts[producer] = counts.get(producer, 0) + 1
                    if within:
                        pending.append(child)
        stats = self._stats[block_id] = (size, counts)
        return stats

    def subtree_size(self, block_id: bytes) -> int:
        """Number of blocks in the subtree rooted at ``block_id`` (inclusive)."""
        return self._subtree_stats(block_id)[0]

    def subtree_producers(self, block_id: bytes) -> Counter:
        """Histogram of producers over the subtree rooted at ``block_id``.

        The root block's own producer is included (it is part of the chain a
        vote for this subtree would finalize); genesis' null producer is never
        counted because genesis has no producer.
        """
        return Counter(self._subtree_stats(block_id)[1])

    def subtree_producers_view(self, block_id: bytes) -> Mapping[bytes, int]:
        """Zero-copy view of a subtree's producer histogram.

        Callers must not mutate the returned mapping; fork-choice rules read
        it on their hot path where the defensive copy of
        :meth:`subtree_producers` would dominate.
        """
        return self._subtree_stats(block_id)[1]

    def chain_to(self, block_id: bytes) -> list[Block]:
        """Blocks from genesis to ``block_id``, inclusive, in height order."""
        held, parents = self._blocks, self._arena.parents
        path: list[Block] = []
        index = self._at(block_id)
        while index >= 0:
            path.append(cast(Block, held[index]))  # an ancestor is held
            index = parents[index]
        path.reverse()
        return path

    def blocks_at_height(self, height: int) -> list[bytes]:
        """All block ids at a height, in reception order."""
        ids = self._ids
        arena = self._arena
        at_height = self._received(arena.by_height.get(height, -1), arena.next_at_height)
        return [ids[index] for index in at_height]

    def max_height(self) -> int:
        """Height of the tallest block in the tree."""
        return self._max_height

    def leaves(self) -> list[bytes]:
        """All blocks without children, in reception order."""
        ids = self._ids
        return [ids[index] for index in self._arrival_order() if not self._kids(index)]

    def iter_blocks(self) -> Iterator[Block]:
        """Iterate over all attached blocks in insertion order."""
        held = self._blocks
        for index in self._arrival_order():
            yield cast(Block, held[index])

    def is_ancestor(self, ancestor_id: bytes, descendant_id: bytes) -> bool:
        """Return whether ``ancestor_id`` lies on the path to ``descendant_id``."""
        heights, parents = self._arena.heights, self._arena.parents
        target = self._at(ancestor_id)
        index = self._at(descendant_id)
        floor = heights[target]
        while index >= 0:
            if index == target:
                return True
            if heights[index] <= floor:
                return False
            index = parents[index]
        return False

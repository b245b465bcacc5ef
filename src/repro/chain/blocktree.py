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
buffered as orphans and attached automatically once the parent is inserted.
Insertion is O(1); the subtree statistics are computed when a rule asks for
them — at forks only — by one walk over the asked block's subtree.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterator, Mapping

from repro.chain.block import Block
from repro.errors import DuplicateBlockError


class _Entry:
    """Bookkeeping attached to each block in the tree.

    Slot-backed with a direct ``parent`` reference: ancestor walks
    (``chain_to``, ``is_ancestor``) follow object pointers instead of
    re-hashing 32-byte block ids through the entry dict on every step.
    ``mark`` is the tree's tallest height right after this block's own
    insertion: it decides which ancestors' statistics count the block (see
    :class:`BlockTree`).
    """

    __slots__ = (
        "block",
        "arrival_seq",
        "arrival_time",
        "children",
        "mark",
        "parent",
        "height",
    )

    def __init__(
        self,
        block: Block,
        arrival_seq: int,
        arrival_time: float,
        parent: "_Entry | None",
        mark: int,
    ) -> None:
        self.block = block
        self.arrival_seq = arrival_seq
        self.arrival_time = arrival_time
        self.children: list[bytes] = []
        self.mark = mark
        self.parent = parent
        self.height = block.height


class BlockTree:
    """A rooted tree of blocks with on-demand subtree statistics.

    ``finality_window`` bounds what a statistics query *counts*, not what an
    insertion walks (an insertion walks nothing).  A descendant ``d`` counts
    toward a block ``a`` iff ``a`` is its parent or ``a`` sat no more than
    ``finality_window`` heights below the tallest block seen when ``d``
    arrived (``a.height >= d.mark - finality_window``).  Blocks deeper than
    that are final for every rule in this library (fork durations are 2–3
    heights, Fig. 8; Prop. 1 bounds the expected convergence time), so their
    counters freeze: exact for subtrees that stopped growing, lower bounds
    for the winning subtree, preserving every comparison's outcome.  Pass
    ``None`` to disable the cutoff (exact statistics everywhere).

    These are exactly the counters an eager per-insertion walk up the
    ancestor path would maintain (``tests/ref_blocktree.py`` keeps that
    implementation as the differential oracle), and they rely on heights
    being contiguous along a path, which block validation enforces.  The
    default window of 32 is >10× the deepest fork observed in any scenario
    this library simulates (worst case: partition halves diverging ~12
    heights before healing) and bounds a query at a live fork to a few
    dozen entries.
    """

    def __init__(self, genesis: Block, finality_window: int | None = 32) -> None:
        self._genesis_id = genesis.block_id
        self._entries: dict[bytes, _Entry] = {}
        self._by_height: dict[int, list[bytes]] = defaultdict(list)
        self._orphans: dict[bytes, list[tuple[Block, float]]] = defaultdict(list)
        self._next_seq = 0
        self.finality_window = finality_window
        self._max_height = 0
        # Statistics answered since the last insertion: a rule reads a fork
        # child's size, then its histogram.
        self._stats: dict[bytes, tuple[int, dict[bytes, int]]] = {}
        self._insert(genesis, arrival_time=genesis.header.timestamp)

    # -- insertion -------------------------------------------------------------

    def _insert(self, block: Block, arrival_time: float) -> None:
        block_id = block.block_id
        parent_entry = (
            self._entries[block.parent_hash] if block_id != self._genesis_id else None
        )
        height = block.height
        if height > self._max_height:
            self._max_height = height
        entry = _Entry(
            block, self._next_seq, arrival_time, parent_entry, self._max_height
        )
        self._next_seq += 1
        self._entries[block_id] = entry
        self._by_height[height].append(block_id)
        if parent_entry is not None:
            parent_entry.children.append(block_id)
        if self._stats:
            self._stats.clear()

    def add_block(self, block: Block, arrival_time: float) -> bool:
        """Insert a block; returns ``True`` if attached, ``False`` if orphaned.

        An orphan (parent not yet known) is buffered and attached when its
        parent arrives; its reception order is assigned at attachment time,
        which matches how a real node would perceive "first received".
        Raises :class:`DuplicateBlockError` on re-insertion.
        """
        block_id = block.block_id
        if block_id in self._entries:
            raise DuplicateBlockError(f"block {block_id.hex()[:12]} already in tree")
        if block.parent_hash not in self._entries:
            self._orphans[block.parent_hash].append((block, arrival_time))
            return False
        self._insert(block, arrival_time)
        if self._orphans:
            self._attach_orphans(block_id, arrival_time)
        return True

    def _attach_orphans(self, parent_id: bytes, arrival_time: float) -> None:
        pending = self._orphans.pop(parent_id, [])
        for orphan, orphan_time in pending:
            self._insert(orphan, max(orphan_time, arrival_time))
            self._attach_orphans(orphan.block_id, arrival_time)

    # -- queries ---------------------------------------------------------------

    @property
    def genesis_id(self) -> bytes:
        """Identifier of the genesis block."""
        return self._genesis_id

    def __contains__(self, block_id: bytes) -> bool:
        return block_id in self._entries

    def __len__(self) -> int:
        """Number of attached blocks, genesis included."""
        return len(self._entries)

    @property
    def orphan_count(self) -> int:
        """Number of buffered blocks still waiting for a parent."""
        return sum(len(v) for v in self._orphans.values())

    def iter_orphans(self) -> Iterator[tuple[Block, float]]:
        """Buffered orphans with their arrival times, grouped by missing parent."""
        for pending in self._orphans.values():
            yield from pending

    def get(self, block_id: bytes) -> Block:
        """Return the block for an identifier (KeyError if absent)."""
        return self._entries[block_id].block

    def has_block(self, block_id: bytes) -> bool:
        return block_id in self._entries

    def children(self, block_id: bytes) -> list[bytes]:
        """Children of a block, in local reception order (§V-B tie-break)."""
        return list(self._entries[block_id].children)

    def children_view(self, block_id: bytes) -> list[bytes]:
        """Zero-copy view of a block's children (do not mutate).

        The fork-choice walk reads every level's child list once per rule
        evaluation; the defensive copy of :meth:`children` is measurable
        there.
        """
        return self._entries[block_id].children

    def parent(self, block_id: bytes) -> bytes | None:
        """Parent id, or ``None`` for genesis."""
        if block_id == self._genesis_id:
            return None
        return self._entries[block_id].block.parent_hash

    def arrival_seq(self, block_id: bytes) -> int:
        """Local reception sequence number (lower = received earlier)."""
        return self._entries[block_id].arrival_seq

    def arrival_time(self, block_id: bytes) -> float:
        """Local reception timestamp."""
        return self._entries[block_id].arrival_time

    def _subtree_stats(self, block_id: bytes) -> tuple[int, dict[bytes, int]]:
        """(block count, producer histogram) of a subtree, window applied."""
        stats = self._stats.get(block_id)
        if stats is not None:
            return stats
        entries = self._entries
        root = entries[block_id]
        window = self.finality_window
        limit = root.height + window if window is not None else float("inf")
        size = 1
        # Genesis has no producer; every other root counts its own.
        producers: dict[bytes, int] = (
            {root.block.producer: 1} if root.parent is not None else {}
        )
        # A child always counts toward its parent; deeper descendants count
        # while ``mark <= limit``.  Marks never decrease down a path, so a
        # block past the limit hides nothing that counts.
        pending = [root]
        while pending:
            entry = pending.pop()
            for child_id in entry.children:
                child = entries[child_id]
                within = child.mark <= limit
                if within or entry is root:
                    size += 1
                    producer = child.block.producer
                    producers[producer] = producers.get(producer, 0) + 1
                    if within:
                        pending.append(child)
        stats = self._stats[block_id] = (size, producers)
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
        path: list[Block] = []
        entry: _Entry | None = self._entries[block_id]
        while entry is not None:
            path.append(entry.block)
            entry = entry.parent
        path.reverse()
        return path

    def blocks_at_height(self, height: int) -> list[bytes]:
        """All block ids at a height, in reception order."""
        return list(self._by_height.get(height, []))

    def max_height(self) -> int:
        """Height of the tallest block in the tree."""
        return self._max_height

    def leaves(self) -> list[bytes]:
        """All blocks without children, in reception order."""
        return [
            block_id
            for block_id, entry in self._entries.items()
            if not entry.children
        ]

    def iter_blocks(self) -> Iterator[Block]:
        """Iterate over all attached blocks in insertion order."""
        for entry in sorted(self._entries.values(), key=lambda e: e.arrival_seq):
            yield entry.block

    def is_ancestor(self, ancestor_id: bytes, descendant_id: bytes) -> bool:
        """Return whether ``ancestor_id`` lies on the path to ``descendant_id``."""
        target = self._entries[ancestor_id]
        entry: _Entry | None = self._entries[descendant_id]
        while entry is not None:
            if entry is target:
                return True
            if entry.height <= target.height:
                return False
            entry = entry.parent
        return False

"""The Themis consensus state machine.

:class:`ConsensusChainState` is the per-node, network-free core of Themis: a
block tree, a main-chain rule (GEOST, or GHOST for *Themis-Lite*), and the
self-adaptive difficulty pipeline of §IV.  Node/network glue lives in
:mod:`repro.consensus`; this class is deliberately pure so unit and property
tests can drive it block by block.

Difficulty tables are *anchored to the chain itself*: the table governing
epoch *e* is a function of the blocks in epoch *e-1* **along the ancestor
path of the block being considered**, not of whatever the local main chain
happens to be.  Two consequences, both required by the paper:

* every node derives identical tables from identical chain data — "each node
  can verify the validity of blocks without extra communication among nodes"
  (§IV-A);
* forks that straddle an epoch boundary stay well-defined: a block's declared
  difficulty is checked against its own prefix, and tables are cached per
  boundary (anchor) block.

Being functions of chain content, those tables — and the §III verdict on a
block — are the same for every node that holds the block: they live in a
:class:`ChainFacts`, computed by the first view that needs them and read by
the rest (docs/algorithms.md, "Chain facts").

Setting ``adaptive=False`` freezes all multiples at 1, which turns the same
machinery into the *PoW-H* baseline (global difficulty only, still
interval-controlled); the fork rule is independently pluggable, giving the
paper's four-way comparison matrix.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from typing import Literal

from repro.chain.block import Block
from repro.chain.blocktree import BlockArena, BlockTree
from repro.chain.forkchoice import ForkChoiceRule, GHOSTRule, LongestChainRule
from repro.core.difficulty import (
    DifficultyParams,
    DifficultyTable,
    advance_table,
)
from repro.core.geost import GEOSTRule
from repro.errors import ChainError, InvalidBlockError, SimulationError

#: Outcome of feeding one block to the state machine.
HeadUpdate = Literal["extended", "reorg", "unchanged", "orphaned", "refused"]

RuleKind = Literal["geost", "ghost", "longest"]


def make_rule(kind: RuleKind, members_fn: Callable[[], Sequence[bytes]]) -> ForkChoiceRule:
    """Instantiate a fork-choice rule by name."""
    if kind == "geost":
        return GEOSTRule(members_fn)
    if kind == "ghost":
        return GHOSTRule()
    if kind == "longest":
        return LongestChainRule()
    raise SimulationError(f"unknown rule kind {kind!r}")


class ChainFacts:
    """Content-determined facts about blocks, shared by every view of a run.

    ``governing`` maps a block id to the ``(anchor id, table)`` in force for
    that block's children — a function of the block's ancestor path, the
    member set, the difficulty constants and ``adaptive``, so only states
    that agree on those may share one object.  ``verdicts`` maps a block id
    to the last block *object* judged under it and why §III checks 1–2
    rejected it (``None``: valid); the id commits to the header only, so a
    copy with another body or signature is a different object and is judged
    again.
    """

    __slots__ = ("governing", "verdicts")

    def __init__(self) -> None:
        self.governing: dict[bytes, tuple[bytes, DifficultyTable]] = {}
        self.verdicts: dict[bytes, tuple[Block, str | None]] = {}

    def verdict(self, block: Block, validate: Callable[[Block], None]) -> str | None:
        """Why ``block`` is invalid (``None`` if valid), validating it once."""
        known = self.verdicts.get(block.block_id)
        if known is not None and known[0] is block:
            return known[1]
        reason = None
        try:
            validate(block)
        except InvalidBlockError as exc:
            reason = str(exc)  # the message, not the traceback's frames
        self.verdicts[block.block_id] = (block, reason)
        return reason


class ConsensusChainState:
    """Block tree + fork choice + difficulty tables for one node.

    Args:
        genesis: the shared genesis block.
        members_fn: returns the current consensus node set (fingerprints).
        params: deployment difficulty constants; ``Δ = β·n`` is fixed from
            the initial member count (the evaluation keeps ``n`` static
            within a run; membership changes rescale ``D_base`` at the next
            epoch rather than resizing ``Δ``).
        rule_kind: ``"geost"`` (Themis), ``"ghost"`` (Themis-Lite / PoW-H) or
            ``"longest"``.
        adaptive: when ``False`` all multiples stay 1 (the PoW-H baseline).
        facts: the run's shared :class:`ChainFacts`; a state given none owns
            a private one (same code path, one view).
        arena: the run's shared :class:`~repro.chain.blocktree.BlockArena`;
            likewise private when not given.
    """

    def __init__(
        self,
        genesis: Block,
        members_fn: Callable[[], Sequence[bytes]],
        params: DifficultyParams,
        rule_kind: RuleKind = "geost",
        adaptive: bool = True,
        finality_window: int | None = 32,
        facts: ChainFacts | None = None,
        arena: BlockArena | None = None,
    ) -> None:
        self.genesis = genesis
        self.members_fn = members_fn
        self.params = params
        self.adaptive = adaptive
        self.rule = make_rule(rule_kind, members_fn)
        self.tree = BlockTree(genesis, finality_window=finality_window, arena=arena)
        self.head_id: bytes = genesis.block_id
        self.epoch_blocks = params.epoch_length(len(members_fn()))
        self.finality_window = finality_window
        self.facts = facts if facts is not None else ChainFacts()
        # Finalized block: every candidate head descends from it; rule walks
        # restart here instead of genesis (see BlockTree.finality_window).
        self._final_id: bytes = genesis.block_id
        self._final_height = 0
        self._final_prefix: Counter = Counter()
        # Incrementally maintained main chain (index == height, genesis at
        # 0).  ``main_chain()`` used to re-walk the ancestor path on every
        # call — O(height) per call, and the invariant monitor calls it for
        # every node on every sweep, which made long runs quadratic.  The
        # cache turns head reads, height checks and finality advancement
        # into O(1) (amortized O(reorg depth) per head move).
        self._chain_blocks: list[Block] = [genesis]

    # -- epochs and tables -------------------------------------------------------

    def epoch_of_height(self, height: int) -> int:
        """Epoch index of a block height; heights 1..Δ are epoch 0."""
        if height < 1:
            raise ChainError("only heights >= 1 belong to an epoch")
        return (height - 1) // self.epoch_blocks

    def _ancestor_at_height(self, block_id: bytes, height: int) -> bytes:
        """Walk parents until the requested height."""
        cursor = block_id
        while True:
            block = self.tree.get(cursor)
            if block.height == height:
                return cursor
            if block.height < height:
                raise ChainError(
                    f"no ancestor of height {height} above {block.height}"
                )
            parent = self.tree.parent(cursor)
            if parent is None:
                raise ChainError("walked past genesis")
            cursor = parent

    def table_for_anchor(self, anchor_id: bytes) -> DifficultyTable:
        """Difficulty table for the epoch *starting after* ``anchor_id``.

        The anchor is the last block of the previous epoch (genesis anchors
        epoch 0).  Derived recursively from the anchor's own prefix and
        memoized per anchor block, so forked boundaries each get their own
        consistent table.
        """
        known = self.facts.governing.get(anchor_id)
        if known is not None and known[0] == anchor_id:
            return known[1]
        table = self.derive_table(anchor_id, self.table_for_anchor)
        self.facts.governing[anchor_id] = (anchor_id, table)
        return table

    def derive_table(
        self, anchor_id: bytes, prev_table: Callable[[bytes], DifficultyTable]
    ) -> DifficultyTable:
        """Compute (never look up) ``anchor_id``'s table from this tree.

        ``prev_table`` resolves the previous anchor's table; the invariant
        monitor passes its own per-node memo so its n derivations stay
        independent of the shared :class:`ChainFacts`.
        """
        anchor = self.tree.get(anchor_id)
        members = list(self.members_fn())
        if anchor.height == 0:
            return DifficultyTable.initial(members, self.params)
        if anchor.height % self.epoch_blocks != 0:
            raise ChainError(f"anchor height {anchor.height} is not an epoch boundary")
        # Producer counts q_i^e over the path (prev anchor, anchor]: exactly
        # the main-chain blocks of the elapsed epoch as this prefix sees
        # them (footnote 6).
        counts, prev_anchor_id = self.tree.path_producers(anchor_id, self.epoch_blocks)
        elapsed = anchor.header.timestamp - self.tree.get(prev_anchor_id).header.timestamp
        table = advance_table(
            prev_table(prev_anchor_id),
            # PoW-H: interval control only — zero counts floor every
            # multiple at 1.
            counts if self.adaptive else {},
            members,
            self.epoch_blocks,
            max(elapsed / self.epoch_blocks, 1e-9),
            self.params,
        )
        return DifficultyTable(
            epoch=anchor.height // self.epoch_blocks,
            base=table.base,
            multiples=table.multiples,
        )

    def governing(self, tip_id: bytes) -> tuple[bytes, DifficultyTable]:
        """(anchor id, table) governing a block whose parent is ``tip_id``.

        A child of ``tip`` (height ``h = tip.height + 1``) lies in epoch
        ``(h-1)//Δ = tip.height//Δ``, whose anchor sits at height
        ``(tip.height//Δ)·Δ`` — ``tip`` itself on a boundary, otherwise the
        same anchor as ``tip``'s parent.  One dict hit on the mining and
        validation hot path; a miss walks up to the nearest known ancestor.
        """
        known = self.facts.governing
        found = known.get(tip_id)
        if found is not None:
            return found
        walked: list[bytes] = []
        cursor = tip_id
        while found is None:
            block = self.tree.get(cursor)
            if block.height % self.epoch_blocks == 0:  # genesis at the latest
                found = (cursor, self.table_for_anchor(cursor))
            else:
                walked.append(cursor)
                cursor = block.parent_hash
                found = known.get(cursor)
        for block_id in walked:
            known[block_id] = found
        return found

    def anchor_for_height(self, tip_id: bytes, height: int) -> bytes:
        """Anchor block id governing the epoch that contains ``height``.

        Walks the ancestor path of ``tip_id`` — pass the parent of the block
        being validated, or the current head when building a new block.
        """
        if height == self.tree.get(tip_id).height + 1:
            return self.governing(tip_id)[0]
        epoch = self.epoch_of_height(height)
        return self._ancestor_at_height(tip_id, epoch * self.epoch_blocks)

    def mining_assignment(self, producer: bytes) -> tuple[float, float, int]:
        """(multiple, base, epoch) for the next block on the current head."""
        table = self.governing(self.head_id)[1]
        return table.multiple(producer), table.base, table.epoch

    # -- block intake -----------------------------------------------------------------

    def add_block(
        self,
        block: Block,
        arrival_time: float,
        admit: Callable[[Block], bool] | None = None,
    ) -> HeadUpdate:
        """Insert a block and update the head.

        ``admit`` is the tree's admission check (:meth:`BlockTree.add_block`);
        without one the block and any orphans it releases are trusted.
        Fast path: a block extending the current head always becomes the new
        head under all three rules (it grows the winning subtree).  Any other
        attachment triggers a full rule walk, which may reorganize.
        """
        before = len(self.tree)
        if not self.tree.add_block(block, arrival_time, admit):
            # Only a block whose parent is held is judged.
            return "refused" if block.parent_hash in self.tree else "orphaned"
        attached_count = len(self.tree) - before
        if block.parent_hash == self.head_id and attached_count == 1:
            # Fast path: a lone extension of the head wins under every rule.
            # When buffered orphans attached alongside, fall through to the
            # full walk — the head may now be one of the orphan descendants.
            self.head_id = block.block_id
            self._chain_blocks.append(block)
            self._advance_finality()
            return "extended"
        old_head = self.head_id
        if isinstance(self.rule, GEOSTRule):
            self.head_id = self.rule.head(
                self.tree, start=self._final_id, prefix=self._final_prefix
            )
        else:
            self.head_id = self.rule.head(self.tree, start=self._final_id)
        if self.head_id == old_head:
            return "unchanged"
        self._sync_chain_cache()
        self._advance_finality()
        if self.tree.is_ancestor(old_head, self.head_id):
            return "extended"  # multi-block advance (orphans attached)
        return "reorg"

    def _sync_chain_cache(self) -> None:
        """Re-point the cached main chain at the (possibly reorged) head.

        Walks the new head's ancestry only until it rejoins the cached
        chain, rewinds the cache to that common ancestor and replays the
        divergent suffix — O(reorg depth), not O(height).
        """
        blocks = self._chain_blocks
        path: list[Block] = []
        block = self.tree.get(self.head_id)
        while not self._on_chain(block):
            path.append(block)
            block = self.tree.get(block.parent_hash)
        del blocks[block.height + 1 :]
        blocks.extend(reversed(path))

    def _on_chain(self, block: Block) -> bool:
        """Whether ``block`` is the cached main chain's block at its height."""
        blocks = self._chain_blocks
        return block.height < len(blocks) and blocks[block.height].block_id == block.block_id

    def _advance_finality(self) -> None:
        """Move the finalized block forward along the main chain.

        Keeps the finalized block ``finality_window`` heights behind the
        head, folding the producers of newly finalized blocks into the cached
        prefix histogram GEOST resumes from.
        """
        if self.finality_window is None:
            return
        head_height = len(self._chain_blocks) - 1
        target = head_height - self.finality_window
        if target <= self._final_height:
            return
        chain = self._chain_blocks
        if chain[self._final_height].block_id != self._final_id:
            raise ChainError("head does not descend from the finalized block")
        for block in chain[self._final_height + 1 : target + 1]:
            self._final_prefix[block.producer] += 1
        self._final_id = chain[target].block_id
        self._final_height = target

    # -- views --------------------------------------------------------------------------

    def head_block(self) -> Block:
        """The current main-chain tip."""
        return self._chain_blocks[-1]

    def main_chain(self) -> list[Block]:
        """Genesis through head, inclusive."""
        return self._chain_blocks.copy()

    def height(self) -> int:
        """Current main-chain height."""
        return len(self._chain_blocks) - 1

    def block_at(self, height: int) -> Block:
        """Main-chain block at ``height`` (O(1); IndexError above the head)."""
        return self._chain_blocks[height]

    def chain_position(self, block_id: bytes) -> int | None:
        """Height of ``block_id`` on the current main chain, else ``None``."""
        if block_id not in self.tree:
            return None
        block = self.tree.get(block_id)
        return block.height if self._on_chain(block) else None

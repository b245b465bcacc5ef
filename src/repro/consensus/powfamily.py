"""The PoW-family consensus nodes: Themis, Themis-Lite, and PoW-H.

All three algorithms share one node implementation — they differ only in two
switches of :class:`MiningNodeConfig` (§VII-B):

=============  ==========  =========
algorithm      rule_kind   adaptive
=============  ==========  =========
Themis         ``geost``   ``True``
Themis-Lite    ``ghost``   ``True``
PoW-H          ``ghost``   ``False``
=============  ==========  =========

Each node independently mines on its current head (solve times sampled from
the mining oracle, or ground with the real miner in ``real_pow`` mode),
gossips solved blocks, and validates and inserts received blocks.  A solve
time is exponential in the node's difficulty (Eq. 7), and exponential times
are memoryless: what is left of a running timer is itself an exact draw.  So
when the head moves the miner keeps its timer as long as its difficulty on
the new head is the one the timer was drawn at, and draws afresh only when
that difficulty changed (an epoch rollover, a membership change).

:class:`MiningNode` is consensus only (§VII-A evaluates it on *virtual*
full blocks): blocks carry no transaction bodies, each represents
``batch_size`` transactions for TPS accounting and is charged the
corresponding compact wire size.  This is how the large sweeps (Fig. 4–9)
run.  The data plane — signed transactions drawn from a mempool and executed
against the ledger — is :class:`~repro.node.node.FullNode`, which fills in
the four hooks below (:meth:`MiningNode._select_transactions`,
:meth:`~MiningNode.block_wire_bytes`, :meth:`~MiningNode._handle_transaction`,
:meth:`~MiningNode._head_moved`); the block path itself is this module's.
"""

from __future__ import annotations

from collections.abc import Callable
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.chain.block import Block, sign_block
from repro.chain.blocktree import BlockTree
from repro.chain.transaction import Transaction
from repro.core.election import BlockBuilder, BlockValidator
from repro.core.themis import ConsensusChainState, HeadUpdate, RuleKind
from repro.crypto.keys import KeyPair
from repro.mining.miner import RealMiner
from repro.net.clock import TimerHandle
from repro.net.message import Message, is_sync_kind
from repro.node.sync import SyncConfig, SyncManager
from repro.consensus.base import ConsensusNode, RunContext

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.storage.sqlite import SqliteStorage


@dataclass(frozen=True)
class MiningNodeConfig:
    """Behavioral switches for a PoW-family node.

    Attributes:
        rule_kind: main-chain rule (``geost`` / ``ghost`` / ``longest``).
        adaptive: enable the §IV-A difficulty multiples (Themis family).
        hash_rate: the node's actual computing power ``h_i`` in puzzle
            evaluations per second.
        batch_size: virtual transactions represented by each block.
        sign_blocks / verify_signatures: real ECDSA on headers and gossiped
            transactions.  On for correctness tests, off for the figure
            sweeps, whose committed numbers were taken unsigned (pure-Python
            ECDSA costs ~0.25 ms per signature and ~0.6–1.7 ms per verification;
            the verdict is memoised on the block, so simulated nodes sharing
            one object verify it once).
        real_pow: grind real SHA-256 nonces instead of sampling the oracle.
            Implies puzzle verification on receipt.
        sync: chain-sync protocol tuning (timeouts, retries, backoff).
    """

    rule_kind: RuleKind = "geost"
    adaptive: bool = True
    hash_rate: float = 1.0
    batch_size: int = 2000
    sign_blocks: bool = False
    verify_signatures: bool = False
    real_pow: bool = False
    # default_factory, NOT a module-level default instance: a single shared
    # SyncConfig as the class default would alias every node's sync tuning
    # to one object (harmless only as long as it stays frozen, and a trap
    # the moment anyone adds mutable state).
    sync: SyncConfig = field(default_factory=SyncConfig)


def themis_config(**overrides) -> MiningNodeConfig:
    """Config for the full Themis algorithm (GEOST + adaptive difficulty)."""
    return MiningNodeConfig(rule_kind="geost", adaptive=True, **overrides)


def themis_lite_config(**overrides) -> MiningNodeConfig:
    """Config for Themis-Lite (GHOST + adaptive difficulty), §VII-B."""
    return MiningNodeConfig(rule_kind="ghost", adaptive=True, **overrides)


def powh_config(**overrides) -> MiningNodeConfig:
    """Config for PoW-H (GHOST + fixed multiples), §VII-B."""
    return MiningNodeConfig(rule_kind="ghost", adaptive=False, **overrides)


@dataclass
class MiningStats:
    """Per-node production counters (``blocks_accepted``: blocks admitted
    to the tree, the node's own included)."""

    blocks_produced: int = 0
    blocks_accepted: int = 0
    blocks_rejected: int = 0
    reorgs: int = 0


#: ``observer(node, kind, block, reason)`` on each §III block-path step:
#: ``block/produced``, ``block/accepted`` (in tree-admission order),
#: ``block/rejected`` (the one kind with a ``reason``) and, per attach,
#: ``chain/<HeadUpdate>``.  Observers only read: no events, no draws.
NodeObserver = Callable[["MiningNode", str, Block, "str | None"], None]


class MiningNode(ConsensusNode):
    """A Themis / Themis-Lite / PoW-H consensus participant."""

    def __init__(
        self,
        node_id: int,
        keypair: KeyPair,
        ctx: RunContext,
        config: MiningNodeConfig,
        members_fn: Callable[[], list[bytes]] | None = None,
    ) -> None:
        super().__init__(node_id, keypair, ctx)
        self.config = config
        self.members_fn = members_fn if members_fn is not None else (lambda: ctx.members)
        self.state = ConsensusChainState(
            genesis=ctx.genesis,
            members_fn=self.members_fn,
            params=ctx.params,
            rule_kind=config.rule_kind,
            adaptive=config.adaptive,
            # Shared only among nodes on the context's own member set.
            facts=(
                ctx.facts_for(config.adaptive, config.real_pow, config.verify_signatures)
                if members_fn is None
                else None
            ),
            arena=ctx.arena,
        )
        # The callbacks close over what they read, never over the node: a
        # node is freed by reference counting once its run lets go of it.
        members_fn, state = self.members_fn, self.state
        self.validator = BlockValidator(
            is_member=lambda addr: addr in members_fn(),
            parent_lookup=state.tree.get,
            table_lookup=lambda block: state.governing(block.parent_hash)[1],
            t0=ctx.params.t0,
            check_pow=config.real_pow,
            verify_signatures=config.verify_signatures,
        )
        self.miner = RealMiner(ctx.params.t0) if config.real_pow else None
        self.builder = BlockBuilder(keypair=keypair)
        self.stats = MiningStats()
        self.sync = SyncManager(self, config.sync)
        self.observers: list[NodeObserver] = []
        # The store recovery reads (live mode only); writes ride on observers.
        self.storage: SqliteStorage | None = None
        self.clock_skew = 0.0
        self.crashed = False
        self._mining_handle: TimerHandle | None = None
        # The difficulty the live timer was drawn at.
        self._armed_difficulty = 0.0
        self._started = False
        self._resume_after_sync = False
        self._last_sync_request = -1e18

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Arm the first mining timer."""
        self._started = True
        self._arm_miner()

    def stop(self) -> None:
        """Stop mining (the node still relays and validates)."""
        self._started = False
        if self._mining_handle is not None:
            self._mining_handle.cancel()
            self._mining_handle = None

    def crash(self) -> None:
        """Simulate a process crash: go dark and lose volatile state.

        The block tree survives (the chain store is durable); any in-flight
        sync is process memory and is lost.  The node's endpoint goes
        offline, so deliveries already in flight toward it are dropped (and
        counted) by the network.
        """
        self.stop()
        self.sync.abort()
        self._resume_after_sync = False
        self.crashed = True
        self.ctx.network.set_offline(self.node_id, True)

    def restart(self, sync_peer: int | None = None) -> None:
        """Rejoin after a crash: come back online, sync, then resume mining.

        Mining stays paused until the sync protocol reports the node is at a
        peer's tip (or gives up), so the first post-recovery block is mined
        at the correct self-adaptive difficulty multiple for the current
        epoch instead of on the stale pre-crash head.
        """
        self.ctx.network.set_offline(self.node_id, False)
        self.crashed = False
        self.start_after_sync(sync_peer)

    def start_after_sync(self, sync_peer: int | None = None) -> None:
        """Sync first, mine after: the catch-up half of :meth:`restart`.

        Used directly by live-mode recovery, where the process is new (no
        crash flag to clear, the transport connects itself) but mining must
        still wait until the node has pulled the suffix it missed while
        down.
        """
        self._resume_after_sync = True
        self.sync.start_sync(sync_peer)

    def local_time(self) -> float:
        """This node's clock reading (simulated time plus any chaos skew)."""
        return max(0.0, self.ctx.sim.now + self.clock_skew)

    # -- durable storage (live mode; never set in simulations) ----------------------

    def attach_storage(self, storage: SqliteStorage) -> None:
        """Bind a durable backend and subscribe its write policy.

        Binds the store to this deployment's genesis (a database from a
        different network is refused) and records the member set for the
        explorer's equality metrics.  The policy records each admitted
        block; per attach it commits once if the head moved, else once
        side-branch blocks fill the batch.
        """
        storage.ensure_genesis(self.ctx.genesis)
        storage.set_members(list(self.members_fn()))
        self.storage = storage

        def persist(node: MiningNode, kind: str, block: Block, reason: str | None) -> None:
            if kind == "block/accepted":
                storage.record_block(block, node.ctx.sim.now)
            elif kind in ("chain/extended", "chain/reorg") or (
                kind.startswith("chain/") and storage.should_commit()
            ):
                storage.commit(node.state.head_id, node.state.tree)

        self.observers.append(persist)

    def restore_from_storage(self) -> int:
        """Replay the persisted chain into consensus state before any sync.

        Recovery rebuilds the block tree by replaying the stored block rows
        in admission order — never by re-downloading from peers — and
        feeds it through :meth:`ConsensusChainState.add_block` with the
        *stored* arrival times, so GEOST's first-received tie-break state
        matches the pre-restart process.  Returns the recovered main-chain
        height (0 = empty store, nothing to restore).

        Call before :meth:`start` / :meth:`request_sync`: peer sync then
        starts from the recovered tip and fetches only the missed suffix.
        """
        if self.storage is None:
            return 0
        recovered = self.storage.recover(self.state.tree.finality_window)
        if recovered is None:
            return 0
        for block in recovered.iter_blocks():
            if block.height == 0 or self.state.tree.has_block(block.block_id):
                continue
            self.state.add_block(block, recovered.arrival_time(block.block_id))
        # One head-moved pass at the end (FullNode executes the ledger
        # here) instead of per replayed block; nothing is re-recorded.
        self._head_moved()
        return self.state.height()

    # -- mining --------------------------------------------------------------------

    def current_difficulty(self) -> float:
        """This node's total difficulty for the next block on its head."""
        multiple, base, _ = self.state.mining_assignment(self.address)
        return multiple * base

    def _arm_miner(self) -> None:
        """Keep or draw the timer for this node's next block on its head.

        A live timer drawn at the difficulty the node still mines at is
        kept: its remainder is an exact Exp draw (memoryless).  Otherwise —
        no live timer (it fired, or the node stopped or crashed), or a
        changed difficulty — the old timer goes and a new one is armed.
        """
        if not self._started:
            return
        difficulty = self.current_difficulty()
        if self._mining_handle is not None:
            if difficulty == self._armed_difficulty:
                return
            self._mining_handle.cancel()
        solve_delay = self.ctx.oracle.sample_solve_time(self.config.hash_rate, difficulty)
        self._armed_difficulty = difficulty
        self._mining_handle = self.ctx.sim.schedule(solve_delay, self._produce_block)

    def _produce_block(self) -> None:
        """The puzzle is solved: build, adopt and broadcast the block (§III)."""
        self._mining_handle = None
        parent = self.state.head_block()
        multiple, base, epoch = self.state.mining_assignment(self.address)
        transactions = self._select_transactions()
        header = self.builder.build_header(
            parent=parent,
            transactions=transactions,
            timestamp=self.local_time(),
            multiple=multiple,
            base_difficulty=base,
            epoch=epoch,
        )
        if self.miner is not None:
            result = self.miner.mine(header)
            if not result.solved:
                self._arm_miner()
                return
            header = result.header
        if self.config.sign_blocks:
            block = sign_block(self.keypair, header, transactions)
        else:
            block = Block(header, None, tuple(transactions))
        self.stats.blocks_produced += 1
        if self.observers:
            self._notify("block/produced", block)
        # Adopt first: the miner re-arms on the fresh head (and draws from
        # the oracle) before the gossip fan-out draws its jitter.  A block
        # this node refuses (it is no longer a member) is not announced.
        if self._attach(block) != "refused":
            self._announce(block)

    def _announce(self, block: Block) -> None:
        """Gossip a block this node produced."""
        self.ctx.network.gossip(
            self.node_id,
            Message(
                kind="block",
                payload=block,
                body_size=self.block_wire_bytes(block),
                origin=self.node_id,
            ),
        )

    def _attach(self, block: Block) -> HeadUpdate:
        """The one way a block enters this node (§III: "valid blocks will be
        added to the local block tree").

        Hands ``block`` to the tree, which asks :meth:`_admit_block` before it
        inserts it and before each buffered orphan it releases.  When the
        head moved: counts a reorg, lets the data plane follow
        (:meth:`_head_moved`), tells the observers, and arms the miner on the
        new head (:meth:`_arm_miner` keeps a timer whose difficulty still
        holds), in that order — once per call, however many blocks entered.
        When it did not, the observers still hear the outcome.
        """
        outcome = self.state.add_block(block, self.ctx.sim.now, self._admit_block)
        if outcome == "reorg":
            self.stats.reorgs += 1
        if outcome in ("extended", "reorg"):
            self._head_moved()
            if self.observers:
                self._notify("chain/" + outcome, block)
            self._arm_miner()
        elif self.observers:
            self._notify("chain/" + outcome, block)
        return outcome

    def _admit_block(self, block: Block) -> bool:
        """The tree's admission check, asked just before ``block`` (whose
        parent is held) is inserted: observers hear of an accepted block in
        the order blocks enter the tree."""
        if not self._judge(block):
            return False
        self.stats.blocks_accepted += 1
        if self.observers:
            self._notify("block/accepted", block)
        return True

    def _judge(self, block: Block) -> bool:
        """Whether ``block`` passes §III checks 1–2; a refusal is counted
        and reported with its reason."""
        # Judged once per block object for every node sharing the facts.
        reason = self.state.facts.verdict(block, self.validator.validate)
        if reason is None:
            return True
        self.stats.blocks_rejected += 1
        if self.observers:
            self._notify("block/rejected", block, reason)
        return False

    def _notify(self, kind: str, block: Block, reason: str | None = None) -> None:
        for observer in self.observers:
            observer(self, kind, block, reason)

    # -- what the data plane overrides (consensus-only bodies) ----------------------

    def _select_transactions(self) -> Sequence[Transaction]:
        """The next block's body: virtual blocks carry none."""
        return ()

    def block_wire_bytes(self, block: Block) -> int:
        """Bytes ``block`` is charged on the wire: a compact relay of the
        ``batch_size`` virtual transactions it stands for."""
        return self.block_wire_size(self.config.batch_size, compact=True)

    def _handle_transaction(self, tx: Transaction) -> None:
        """A gossiped transaction: a consensus-only node keeps no pool."""

    def _head_moved(self) -> None:
        """The main chain changed (extension or reorg): nothing rides on it here."""

    # -- reception ------------------------------------------------------------------

    #: Minimum spacing between orphan-triggered sync requests (seconds).
    SYNC_COOLDOWN = 5.0

    def on_message(self, message: Message, from_peer: int) -> None:
        if is_sync_kind(message.kind):
            self.sync.on_message(message, from_peer)
            return
        if not self.ctx.network.gossip_deliver(self.node_id, from_peer, message):
            return
        if message.kind == "block":
            orphans = self.state.tree.orphan_count
            self._handle_block(message.payload)
            # A growing orphan buffer means we are missing a chain segment
            # (we were offline, or a partition healed): pull it from the
            # peer that is feeding us the unknown branch.  An orphan that
            # merely stays buffered starts nothing: its parent may be on no
            # peer's main chain, and re-syncing would never resolve it.
            if (
                self.state.tree.orphan_count > orphans
                and self.ctx.sim.now - self._last_sync_request > self.SYNC_COOLDOWN
            ):
                self._last_sync_request = self.ctx.sim.now
                self.request_sync(from_peer)
        elif message.kind == "tx":
            self._handle_transaction(message.payload)

    # -- chain sync -------------------------------------------------------------------

    def request_sync(self, peer: int | None = None) -> None:
        """Start the catch-up protocol against ``peer`` (or rotate peers).

        A node that was offline (or that just joined the consortium through
        the §IV-C governance flow) pages in a peer's main chain through
        :class:`~repro.node.sync.SyncManager`; once a headers page comes
        back non-full it is at the tip.  Responses flow through the same
        validation as gossiped blocks.
        """
        self.sync.start_sync(peer)

    def _on_sync_complete(self, success: bool) -> None:
        """Sync finished (or gave up): resume mining on the fresh head.

        After a :meth:`restart` the miner was held back until this point;
        on failure it starts anyway — gossip and the orphan-triggered sync
        path will eventually repair the gap.
        """
        if self._resume_after_sync:
            self._resume_after_sync = False
            self.start()
        elif self._started:
            self._arm_miner()

    def _handle_block(self, block: Block) -> None:
        """A block from a peer, gossiped or synced."""
        if block.block_id in self.state.tree:
            # A copy of a held block (an id commits to the header only, so
            # body or signature may differ): judged, never inserted twice.
            self._judge(block)
        else:
            self._attach(block)

    # -- views -----------------------------------------------------------------------

    @property
    def tree(self) -> BlockTree:
        """The node's local block tree."""
        return self.state.tree

    def main_chain(self) -> list[Block]:
        """The node's current main chain."""
        return self.state.main_chain()

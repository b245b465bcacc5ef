"""PBFT baseline (Castro & Liskov, OSDI'99) on the simulated network.

The paper's comparison baseline for consortium blockchains: round-robin
leaders, three-phase commit (pre-prepare / prepare / commit) with ``2f+1``
quorums out of ``n = 3f + 1``-tolerance membership, and view changes on
timeout (§VII-D: "in PBFT, a timeout mechanism will be triggered once a
successful attack launched, and the block interval will greatly increase").

Fidelity/efficiency split:

* the **pre-prepare** phase is fully simulated: the leader unicasts the batch
  to every replica over its 20 Mbps uplink, so leader dissemination cost
  grows linearly with ``n`` — the scalability bottleneck of Fig. 6;
* the **prepare/commit** phases are *aggregated*: every vote is charged to
  the traffic statistics (2·n·(n-1) messages of 192 B per round) and the
  phase duration is computed analytically as the time for a replica to push
  ``n-1`` votes up its uplink plus propagation, but the O(n²) individual
  deliveries are not scheduled as discrete events.  Votes are tiny and
  homogeneous, so the aggregation preserves round timing while keeping a
  600-node run at O(n) events per round.

Because PBFT is deterministic and fork-free, the cluster maintains one
committed chain; per-node block trees would all be identical.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.chain.block import BLOCK_VERSION, Block, BlockHeader
from repro.consensus.base import (
    COMPACT_TX_BYTES,
    HEADER_WIRE_BYTES,
    VOTE_BYTES,
    ConsensusNode,
    RunContext,
)
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import EMPTY_ROOT
from repro.errors import ConsensusError
from repro.net.clock import TimerHandle
from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.net.network import SimulatedNetwork


@dataclass(frozen=True)
class PBFTConfig:
    """PBFT protocol parameters.

    Attributes:
        batch_size: transactions per proposal (virtual, for TPS accounting).
        base_timeout: view-change timeout in seconds; ``None`` derives a
            safe value from the expected round duration at the given ``n``.
    """

    batch_size: int = 2000
    base_timeout: float | None = None


#: Timeout multiplier after each consecutive view change (classic
#: exponential backoff; resets on progress).
TIMEOUT_BACKOFF = 2.0


@dataclass
class CommittedEntry:
    """One finalized PBFT block."""

    height: int
    producer: bytes
    proposer_id: int
    committed_at: float
    batch_size: int


@dataclass
class PBFTStats:
    """Cluster-level counters."""

    rounds_committed: int = 0
    view_changes: int = 0
    votes_charged: int = 0


class PBFTReplica(ConsensusNode):
    """Thin per-node endpoint: receives pre-prepares, reports to the cluster."""

    cluster: PBFTCluster  # bound by the cluster

    def __init__(
        self, node_id: int, keypair: KeyPair, ctx: RunContext, config: PBFTConfig
    ) -> None:
        super().__init__(node_id, keypair, ctx)
        self.config = config

    def start(self) -> None:  # the cluster drives the protocol
        pass

    def on_message(self, message: Message, from_peer: int) -> None:
        if message.kind == "pbft/pre-prepare":
            self.cluster.on_pre_prepare(self.node_id, message)


class PBFTCluster:
    """Coordinates one PBFT deployment over the simulated network."""

    def __init__(self, replicas: Sequence[PBFTReplica]) -> None:
        if len(replicas) < 4:
            raise ConsensusError("PBFT needs n >= 4 (n = 3f + 1 with f >= 1)")
        ctx = replicas[0].ctx
        if not isinstance(ctx.network, SimulatedNetwork):
            # The baseline's analytic round-timing model reads the simulated
            # link parameters; it has no live-transport counterpart.
            raise ConsensusError("the PBFT baseline requires the simulated network")
        self._link = ctx.network.link
        self.ctx = ctx
        self.config = replicas[0].config
        # The replicas point at the cluster; the cluster keeps only their
        # addresses, so the two never reference each other both ways.
        for replica in replicas:
            replica.cluster = self
        self._addresses = [replica.address for replica in replicas]
        self.n = len(replicas)
        self.f = (self.n - 1) // 3
        self.committed: list[CommittedEntry] = []
        self.stats = PBFTStats()
        self._view = 0
        self._sequence = 0
        self._round_deliveries: dict[int, float] = {}
        self._round_active = False
        self._round_block: Block | None = None
        self._commit_handle: TimerHandle | None = None
        self._timeout_handle: TimerHandle | None = None
        self._consecutive_view_changes = 0
        self._parent_hash = ctx.genesis.block_id
        self._running = False

    # -- timing model -------------------------------------------------------------

    def _vote_wire(self) -> int:
        return VOTE_BYTES + MESSAGE_OVERHEAD_BYTES

    def _vote_phase_duration(self) -> float:
        """Time for one all-to-all vote phase (aggregated, see module doc)."""
        link = self._link
        serialization = link.serialization_time(self._vote_wire()) * (self.n - 1)
        return serialization + link.min_delay

    def _proposal_wire(self) -> int:
        """An id-only proposal: bodies are pre-disseminated (§VII-A)."""
        return HEADER_WIRE_BYTES + COMPACT_TX_BYTES * self.config.batch_size

    def expected_round_duration(self) -> float:
        """Analytic estimate of a fault-free round (used for the timeout)."""
        link = self._link
        dissemination = (
            link.serialization_time(self._proposal_wire() + MESSAGE_OVERHEAD_BYTES)
            * (self.n - 1)
            + link.min_delay
        )
        return dissemination + 2.0 * self._vote_phase_duration()

    def current_timeout(self) -> float:
        base = (
            self.config.base_timeout
            if self.config.base_timeout is not None
            else 3.0 * self.expected_round_duration() + 2.0
        )
        return base * TIMEOUT_BACKOFF**self._consecutive_view_changes

    # -- protocol ------------------------------------------------------------------

    def primary_of(self, sequence: int, view: int) -> int:
        """Round-robin leader: rotates every sequence, shifted by the view."""
        return (sequence + view) % self.n

    @property
    def current_primary(self) -> int:
        return self.primary_of(self._sequence, self._view)

    def start(self) -> None:
        """Begin consensus from sequence 0."""
        self._running = True
        self._begin_round()

    def stop(self) -> None:
        self._running = False
        for handle in (self._commit_handle, self._timeout_handle):
            if handle is not None:
                handle.cancel()

    def _begin_round(self) -> None:
        if not self._running:
            return
        self._round_deliveries = {}
        self._round_active = True
        primary = self.current_primary
        header = BlockHeader(
            version=BLOCK_VERSION,
            height=self._sequence + 1,
            parent_hash=self._parent_hash,
            merkle_root=EMPTY_ROOT,
            timestamp=self.ctx.sim.now,
            producer=self._addresses[primary],
            difficulty_multiple=1.0,
            base_difficulty=1.0,
            epoch=0,
        )
        self._round_block = Block(header, None, ())
        message = Message(
            kind="pbft/pre-prepare",
            payload=self._round_block,
            body_size=self._proposal_wire(),
            origin=primary,
        )
        for node_id in range(self.n):
            if node_id != primary:
                self.ctx.network.unicast(primary, node_id, message)
        self._timeout_handle = self.ctx.sim.schedule(
            self.current_timeout(), self._on_timeout
        )

    def on_pre_prepare(self, replica_id: int, message: Message) -> None:
        """A replica received the proposal; check for a prepare quorum.

        The commit point is reached once ``2f`` replicas (plus the leader)
        hold the proposal and two vote phases elapse; vote phases are
        aggregated per the module docstring.
        """
        if not self._round_active or message.payload is not self._round_block:
            return
        self._round_deliveries[replica_id] = self.ctx.sim.now
        if len(self._round_deliveries) == 2 * self.f and self._commit_handle is None:
            commit_in = 2.0 * self._vote_phase_duration()
            self._charge_votes()
            self._commit_handle = self.ctx.sim.schedule(commit_in, self._commit)

    def _charge_votes(self) -> None:
        """Account the aggregated prepare/commit traffic (2·n·(n-1) votes)."""
        votes = 2 * self.n * (self.n - 1)
        self.stats.votes_charged += votes
        self.ctx.network.stats.record_send("pbft/vote", self._vote_wire(), votes)

    def _commit(self) -> None:
        assert self._round_block is not None
        self._commit_handle = None
        self._round_active = False
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None
        self._consecutive_view_changes = 0
        block = self._round_block
        self.committed.append(
            CommittedEntry(
                height=block.height,
                producer=block.producer,
                proposer_id=self.current_primary,
                committed_at=self.ctx.sim.now,
                batch_size=self.config.batch_size,
            )
        )
        self.stats.rounds_committed += 1
        self._parent_hash = block.block_id
        self._sequence += 1
        self._begin_round()

    def _on_timeout(self) -> None:
        """No quorum in time: view change (§VII-D attack behaviour)."""
        if not self._round_active or not self._running:
            return
        if self._commit_handle is not None:
            return  # commit already scheduled; let it land
        self.stats.view_changes += 1
        self._consecutive_view_changes += 1
        self._round_active = False
        # Charge the view-change storm: every replica broadcasts a view-change
        # message, and the new primary answers with a new-view.
        votes = self.n * (self.n - 1)
        self.ctx.network.stats.record_send("pbft/view-change", self._vote_wire(), votes)
        self._view += 1
        self.ctx.sim.schedule(self._vote_phase_duration(), self._begin_round)

    # -- views ---------------------------------------------------------------------

    def committed_producers(self) -> list[bytes]:
        """Producer fingerprints of the committed chain (metrics input)."""
        return [entry.producer for entry in self.committed]

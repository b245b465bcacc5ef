"""Shared interface and context for consensus node implementations.

A *node* here is a full simulated participant: it owns an identity keypair,
sits on the simulated network, and drives its consensus engine from network
events.  :class:`RunContext` bundles the per-run singletons every node needs
(simulator, network, oracle, genesis, difficulty constants) so constructing a
fleet of nodes stays declarative.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from random import Random

from repro.chain.block import Block
from repro.chain.blocktree import BlockArena
from repro.chain.genesis import make_genesis
from repro.core.difficulty import DifficultyParams
from repro.core.themis import ChainFacts
from repro.crypto.keys import KeyPair
from repro.mining.oracle import MiningOracle
from repro.net.clock import Clock
from repro.net.message import Message
from repro.net.transport import Transport

#: Estimated serialized header + signature envelope size in bytes, used when
#: charging compact block relays (header + per-tx ids).
HEADER_WIRE_BYTES = 260

#: Bytes charged per transaction id in a compact block relay.
COMPACT_TX_BYTES = 32

#: Bytes charged per transaction in a full-body relay (§VII-A).
FULL_TX_BYTES = 512

#: Wire size of a PBFT vote (prepare/commit/view-change) body.
VOTE_BYTES = 192


@dataclass
class RunContext:
    """Per-run singletons shared by every node in a deployment.

    ``sim`` and ``network`` are *interfaces* (:class:`~repro.net.clock.Clock`
    and :class:`~repro.net.transport.Transport`): the same node code runs on
    the deterministic simulator and on the live asyncio TCP backend.
    Harness code that needs backend-specific surface (``Simulator.run``,
    chaos partitions) keeps its own reference to the concrete object.

    ``arena`` holds what is per block (docs/algorithms.md, "What is per
    block, what is per view"); every node's tree is a view of it.
    """

    sim: Clock
    network: Transport
    oracle: MiningOracle
    genesis: Block
    params: DifficultyParams
    members: list[bytes] = field(default_factory=list)
    arena: BlockArena = field(init=False, repr=False)
    _facts: dict[tuple[bool, bool, bool], ChainFacts] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.arena = BlockArena(self.genesis)

    @property
    def n(self) -> int:
        """Number of consensus members."""
        return len(self.members)

    def facts_for(
        self, adaptive: bool, real_pow: bool, verify_signatures: bool
    ) -> ChainFacts:
        """The :class:`ChainFacts` shared by this run's nodes.

        Tables are functions of ``genesis``, ``params``, ``members`` and
        ``adaptive``; verdicts also of which checks run.  Nodes that differ
        in a switch get different objects, and a node with its own member
        set (``FullNode`` governance) must not call this at all.
        """
        key = (adaptive, real_pow, verify_signatures)
        return self._facts.setdefault(key, ChainFacts())


def consortium_context(
    clock: Clock, rng: Random, network: Transport, params: DifficultyParams, keys: Sequence[KeyPair]
) -> RunContext:
    """The run context every member derives alike, simulated or live: the
    oracle on ``rng`` (the clock's generator) at ``params.t0``, the common
    genesis, and the keys' fingerprints as the members in node-id order."""
    return RunContext(
        sim=clock,
        network=network,
        oracle=MiningOracle(rng, params.t0),
        genesis=make_genesis(),
        params=params,
        members=[key.public.fingerprint() for key in keys],
    )


class ConsensusNode(ABC):
    """A consensus participant bound to one network endpoint."""

    def __init__(self, node_id: int, keypair: KeyPair, ctx: RunContext) -> None:
        self.node_id = node_id
        self.keypair = keypair
        self.ctx = ctx
        self.address = keypair.public.fingerprint()
        ctx.network.attach(node_id, self.on_message)

    @abstractmethod
    def start(self) -> None:
        """Begin participating (arm timers, start mining, ...)."""

    @abstractmethod
    def on_message(self, message: Message, from_peer: int) -> None:
        """Network delivery callback."""

    # -- shared helpers ---------------------------------------------------------

    def block_wire_size(self, tx_count: int, compact: bool) -> int:
        """Bytes a block relay occupies on the wire.

        Compact relays (header + transaction ids) model the standard
        consortium/Bitcoin optimization where transaction bodies are already
        disseminated ahead of consensus; full relays charge §VII-A's 512
        bytes per transaction.
        """
        per_tx = COMPACT_TX_BYTES if compact else FULL_TX_BYTES
        return HEADER_WIRE_BYTES + per_tx * tx_count

"""Minimal smart-contract framework and the NodeSetContract (§IV-C).

Themis manages consensus-node membership on chain: "consensus node ... sends a
transaction to call the consensus node set management contract
*NodeSetContract*, waiting for other nodes to vote for a node joining or
removing proposal (one node one vote).  If the supporting nodes exceed half of
the consensus node set, the proposal will take effect at the beginning of the
next consensus round."

A contract is a pseudo-account whose behaviour runs inside the transaction
executor.  Contract calls are encoded in the transaction payload as
``method || args`` via the canonical codec, so governance traffic flows
through the same mempool, blocks and gossip as ordinary transfers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.chain.codec import Reader, Writer
from repro.crypto.hashing import sha256
from repro.errors import ContractError

#: Well-known address of the node-set governance contract.
NODESET_CONTRACT_ADDRESS = sha256(b"repro/NodeSetContract")[:20]


class ProposalKind(enum.Enum):
    """Membership proposal kinds from §IV-C."""

    ADD = "add"
    REMOVE = "remove"


class ProposalStatus(enum.Enum):
    """Lifecycle of a membership proposal."""

    OPEN = "open"
    PASSED = "passed"
    REJECTED = "rejected"


@dataclass
class Proposal:
    """A pending Add/Remove proposal with its recorded votes."""

    proposal_id: int
    kind: ProposalKind
    target: bytes
    proposer: bytes
    evidence: bytes
    votes: dict[bytes, bool] = field(default_factory=dict)
    status: ProposalStatus = ProposalStatus.OPEN

    def support_count(self) -> int:
        """Number of supporting votes cast so far."""
        return sum(1 for approve in self.votes.values() if approve)


class Contract:
    """Base class: a contract owns an address and handles payload calls."""

    address: bytes

    def call(self, sender: bytes, payload: bytes) -> None:
        """Execute a call; raise :class:`ContractError` to reject it."""
        raise NotImplementedError


class NodeSetContract(Contract):
    """On-chain consensus-node-set management (§IV-C).

    The contract is deterministic state replicated by every node: because all
    nodes execute the same chain, they agree on the member set without extra
    communication.  Proposals that reach strictly more than half of the
    *current* member set's support are marked ``PASSED``; the consensus engine
    applies passed proposals at the next round boundary via
    :meth:`drain_effective`.
    """

    address = NODESET_CONTRACT_ADDRESS

    def __init__(self, initial_members: list[bytes]) -> None:
        self.reset(initial_members)

    def reset(self, initial_members: list[bytes]) -> None:
        """Return to the state of a new contract over ``initial_members``
        (a node replaying its chain from genesis after a reorg)."""
        for member in initial_members:
            if len(member) != 20:
                raise ContractError("member addresses must be 20 bytes")
        if len(set(initial_members)) != len(initial_members):
            raise ContractError("duplicate initial members")
        self._members: list[bytes] = list(initial_members)
        self._proposals: dict[int, Proposal] = {}
        self._next_proposal_id = 0
        self._effective_queue: list[Proposal] = []

    # -- views -----------------------------------------------------------------

    @property
    def members(self) -> list[bytes]:
        """Current member set, in join order."""
        return list(self._members)

    def is_member(self, address: bytes) -> bool:
        return address in self._members

    def proposal(self, proposal_id: int) -> Proposal:
        try:
            return self._proposals[proposal_id]
        except KeyError as exc:
            raise ContractError(f"unknown proposal {proposal_id}") from exc

    def open_proposals(self) -> list[Proposal]:
        """All proposals still collecting votes."""
        return [p for p in self._proposals.values() if p.status is ProposalStatus.OPEN]

    # -- calls -------------------------------------------------------------------

    def call(self, sender: bytes, payload: bytes) -> None:
        reader = Reader(payload)
        method = reader.read_str()
        if method == "propose_add":
            target = reader.read_bytes_raw(20)
            evidence = reader.read_bytes()
            reader.expect_end()
            self._propose(sender, ProposalKind.ADD, target, evidence)
        elif method == "propose_remove":
            target = reader.read_bytes_raw(20)
            evidence = reader.read_bytes()
            reader.expect_end()
            self._propose(sender, ProposalKind.REMOVE, target, evidence)
        elif method == "vote":
            proposal_id = reader.read_varint()
            approve = reader.read_bool()
            reader.expect_end()
            self._vote(sender, proposal_id, approve)
        else:
            raise ContractError(f"unknown NodeSetContract method {method!r}")

    def _propose(
        self, sender: bytes, kind: ProposalKind, target: bytes, evidence: bytes
    ) -> None:
        if not self.is_member(sender):
            raise ContractError("only consensus members may raise proposals")
        if kind is ProposalKind.ADD and target in self._members:
            raise ContractError("target is already a member")
        if kind is ProposalKind.REMOVE and target not in self._members:
            raise ContractError("target is not a member")
        proposal = Proposal(
            proposal_id=self._next_proposal_id,
            kind=kind,
            target=target,
            proposer=sender,
            evidence=evidence,
        )
        self._next_proposal_id += 1
        self._proposals[proposal.proposal_id] = proposal
        # Raising a proposal counts as the proposer's supporting vote.
        proposal.votes[sender] = True
        self._check_quorum(proposal)

    def _vote(self, sender: bytes, proposal_id: int, approve: bool) -> None:
        if not self.is_member(sender):
            raise ContractError("only consensus members may vote")
        proposal = self.proposal(proposal_id)
        if proposal.status is not ProposalStatus.OPEN:
            raise ContractError(f"proposal {proposal_id} is {proposal.status.value}")
        if sender in proposal.votes:
            raise ContractError("one node one vote: duplicate vote")
        proposal.votes[sender] = approve
        self._check_quorum(proposal)

    def _check_quorum(self, proposal: Proposal) -> None:
        """Pass when support strictly exceeds half the member set (§IV-C)."""
        n = len(self._members)
        if proposal.support_count() * 2 > n:
            proposal.status = ProposalStatus.PASSED
            self._effective_queue.append(proposal)
        elif (len(proposal.votes) - proposal.support_count()) * 2 >= n:
            # A strict majority can no longer be reached.
            proposal.status = ProposalStatus.REJECTED

    # -- round boundary -----------------------------------------------------------

    def drain_effective(self) -> list[Proposal]:
        """Apply passed proposals and return them (called at round start).

        §IV-C: "the proposal will take effect at the beginning of the next
        consensus round."  Membership mutations happen here, not at vote time,
        so a proposal passed mid-round does not change block validation until
        the boundary.
        """
        applied: list[Proposal] = []
        for proposal in self._effective_queue:
            if proposal.kind is ProposalKind.ADD:
                if proposal.target not in self._members:
                    self._members.append(proposal.target)
                    applied.append(proposal)
            else:
                if proposal.target in self._members:
                    self._members.remove(proposal.target)
                    applied.append(proposal)
        self._effective_queue.clear()
        return applied


# -- payload builders (client side) -----------------------------------------------


def encode_propose_add(target: bytes, evidence: bytes = b"") -> bytes:
    """Payload for an Add proposal (address + proof of identity, §IV-C)."""
    return Writer().write_str("propose_add").write_bytes_raw(target).write_bytes(evidence).getvalue()


def encode_propose_remove(target: bytes, evidence: bytes = b"") -> bytes:
    """Payload for a Remove proposal (address + proof of misbehaviour)."""
    return (
        Writer()
        .write_str("propose_remove")
        .write_bytes_raw(target)
        .write_bytes(evidence)
        .getvalue()
    )


def encode_vote(proposal_id: int, approve: bool) -> bytes:
    """Payload for a vote on an open proposal."""
    return Writer().write_str("vote").write_varint(proposal_id).write_bool(approve).getvalue()

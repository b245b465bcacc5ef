"""Tests for the NodeSetContract governance flow (§IV-C)."""

from __future__ import annotations

import pytest

from repro.chain.codec import Writer
from repro.errors import ContractError
from repro.ledger.contract import (
    NodeSetContract,
    ProposalKind,
    ProposalStatus,
    encode_propose_add,
    encode_propose_remove,
    encode_vote,
)

from tests.conftest import keypair


def addr(i: int) -> bytes:
    return keypair(i).public.fingerprint()


@pytest.fixture()
def contract() -> NodeSetContract:
    return NodeSetContract([addr(0), addr(1), addr(2), addr(3), addr(4)])


class TestConstruction:
    def test_members_exposed(self, contract):
        assert contract.members == [addr(i) for i in range(5)]
        assert contract.is_member(addr(0))
        assert not contract.is_member(addr(7))

    def test_duplicate_members_rejected(self):
        with pytest.raises(ContractError):
            NodeSetContract([addr(0), addr(0)])

    def test_bad_address_rejected(self):
        with pytest.raises(ContractError):
            NodeSetContract([b"short"])


class TestProposals:
    def test_propose_add(self, contract):
        contract.call(addr(0), encode_propose_add(addr(7), b"identity-proof"))
        proposal = contract.proposal(0)
        assert proposal.kind is ProposalKind.ADD
        assert proposal.target == addr(7)
        assert proposal.evidence == b"identity-proof"
        assert proposal.votes == {addr(0): True}  # proposer auto-supports

    def test_propose_remove(self, contract):
        contract.call(addr(1), encode_propose_remove(addr(2), b"double-spend-proof"))
        assert contract.proposal(0).kind is ProposalKind.REMOVE

    def test_non_member_cannot_propose(self, contract):
        with pytest.raises(ContractError):
            contract.call(addr(7), encode_propose_add(addr(6)))

    def test_add_existing_member_rejected(self, contract):
        with pytest.raises(ContractError):
            contract.call(addr(0), encode_propose_add(addr(1)))

    def test_remove_non_member_rejected(self, contract):
        with pytest.raises(ContractError):
            contract.call(addr(0), encode_propose_remove(addr(7)))

    def test_unknown_method_rejected(self, contract):
        payload = Writer().write_str("steal_funds").getvalue()
        with pytest.raises(ContractError):
            contract.call(addr(0), payload)

    def test_unknown_proposal_lookup(self, contract):
        with pytest.raises(ContractError):
            contract.proposal(42)


class TestVoting:
    def test_majority_passes(self, contract):
        contract.call(addr(0), encode_propose_add(addr(7)))
        contract.call(addr(1), encode_vote(0, True))
        assert contract.proposal(0).status is ProposalStatus.OPEN  # 2/5
        contract.call(addr(2), encode_vote(0, True))  # 3/5 > half
        assert contract.proposal(0).status is ProposalStatus.PASSED

    def test_one_node_one_vote(self, contract):
        contract.call(addr(0), encode_propose_add(addr(7)))
        contract.call(addr(1), encode_vote(0, True))
        with pytest.raises(ContractError):
            contract.call(addr(1), encode_vote(0, True))

    def test_proposer_cannot_double_vote(self, contract):
        contract.call(addr(0), encode_propose_add(addr(7)))
        with pytest.raises(ContractError):
            contract.call(addr(0), encode_vote(0, True))

    def test_non_member_cannot_vote(self, contract):
        contract.call(addr(0), encode_propose_add(addr(7)))
        with pytest.raises(ContractError):
            contract.call(addr(9), encode_vote(0, True))

    def test_rejection_when_majority_unreachable(self, contract):
        contract.call(addr(0), encode_propose_add(addr(7)))
        contract.call(addr(1), encode_vote(0, False))
        contract.call(addr(2), encode_vote(0, False))
        assert contract.proposal(0).status is ProposalStatus.OPEN  # 2 no of 5
        contract.call(addr(3), encode_vote(0, False))  # 3 no: dead
        assert contract.proposal(0).status is ProposalStatus.REJECTED

    def test_vote_on_closed_proposal_rejected(self, contract):
        contract.call(addr(0), encode_propose_add(addr(7)))
        contract.call(addr(1), encode_vote(0, True))
        contract.call(addr(2), encode_vote(0, True))
        with pytest.raises(ContractError):
            contract.call(addr(3), encode_vote(0, True))


class TestRoundBoundary:
    def test_passed_add_takes_effect_on_drain(self, contract):
        contract.call(addr(0), encode_propose_add(addr(7)))
        contract.call(addr(1), encode_vote(0, True))
        contract.call(addr(2), encode_vote(0, True))
        # §IV-C: not a member until the round boundary.
        assert not contract.is_member(addr(7))
        applied = contract.drain_effective()
        assert [p.target for p in applied] == [addr(7)]
        assert contract.is_member(addr(7))
        assert len(contract.members) == 6

    def test_passed_remove_takes_effect_on_drain(self, contract):
        contract.call(addr(0), encode_propose_remove(addr(4)))
        contract.call(addr(1), encode_vote(0, True))
        contract.call(addr(2), encode_vote(0, True))
        contract.drain_effective()
        assert not contract.is_member(addr(4))

    def test_drain_idempotent(self, contract):
        contract.call(addr(0), encode_propose_add(addr(7)))
        contract.call(addr(1), encode_vote(0, True))
        contract.call(addr(2), encode_vote(0, True))
        contract.drain_effective()
        assert contract.drain_effective() == []

    def test_open_proposals_listing(self, contract):
        contract.call(addr(0), encode_propose_add(addr(7)))
        contract.call(addr(1), encode_propose_remove(addr(2)))
        assert len(contract.open_proposals()) == 2

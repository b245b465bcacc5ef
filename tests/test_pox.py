"""Tests for the §VI-E Proof-of-X extensions (PoS and PoR variants)."""

from __future__ import annotations

import pytest

from repro.core.difficulty import DifficultyTable, next_multiples
from repro.core.pox import (
    ReputationElection,
    StakeAccount,
    StakeElection,
    equalization_gain,
)
from repro.errors import ConsensusError

from tests.conftest import keypair


def addr(i: int) -> bytes:
    return keypair(i).public.fingerprint()


class TestStakeElection:
    def _election(self) -> StakeElection:
        return StakeElection(
            {
                addr(0): StakeAccount(balance=1000.0, held_days=10.0),
                addr(1): StakeAccount(balance=100.0, held_days=10.0),
                addr(2): StakeAccount(balance=100.0, held_days=10.0),
            }
        )

    def test_raw_weights_are_coin_days(self):
        weights = self._election().raw_weights()
        assert weights[addr(0)] == 10_000.0
        assert weights[addr(1)] == 1_000.0

    def test_raw_probabilities_unequal(self):
        probs = self._election().win_probabilities()
        assert probs[addr(0)] == pytest.approx(10 / 12)

    def test_multiples_equalize(self):
        """The §VI-E modification: m_i divides coinDay out."""
        probs = self._election().win_probabilities(
            multiples={addr(0): 10.0, addr(1): 1.0, addr(2): 1.0}
        )
        assert probs[addr(0)] == pytest.approx(1 / 3)
        assert probs[addr(1)] == pytest.approx(1 / 3)

    def test_eq6_feedback_converges_for_stake(self):
        """Iterating Eq. 6 on expected stake wins drives shares to 1/n."""
        election = self._election()
        members = election.members
        multiples = {m: 1.0 for m in members}
        delta = 30
        for _ in range(25):
            probs = election.win_probabilities(multiples)
            counts = {m: delta * p for m, p in probs.items()}
            table = DifficultyTable(epoch=0, base=1.0, multiples=multiples)
            multiples = next_multiples(table, counts, members, delta)
        final = election.win_probabilities(multiples)
        for p in final.values():
            assert p == pytest.approx(1 / 3, rel=0.02)

    def test_validation(self):
        with pytest.raises(ConsensusError):
            StakeElection({})
        with pytest.raises(ConsensusError):
            StakeElection({addr(0): StakeAccount(-1.0, 1.0)})
        with pytest.raises(ConsensusError):
            self._election().win_probabilities({addr(0): 0.5})


class TestReputationElection:
    def _election(self) -> ReputationElection:
        return ReputationElection(
            {addr(i): 1.0 + i for i in range(5)}, committee_factor=4.0
        )

    def test_leader_deterministic_given_seed(self):
        election = self._election()
        assert election.leader(b"seed", 3) == election.leader(b"seed", 3)

    def test_leader_unpredictable_across_seeds(self):
        """Before the round seed is known the leader cannot be predicted."""
        election = self._election()
        leaders = {election.leader(bytes([s]) * 4, 0) for s in range(24)}
        assert len(leaders) > 1

    def test_rotation_across_rounds(self):
        election = self._election()
        leaders = {election.leader(b"seed", r) for r in range(40)}
        assert len(leaders) >= 3  # no fixed leader, unlike plain PoR

    def test_reputation_weights_odds(self):
        election = ReputationElection({addr(0): 10.0, addr(1): 1.0})
        dist = election.empirical_leader_distribution(b"seed", rounds=400)
        assert dist[addr(0)] > dist[addr(1)]

    def test_committee_nonempty_fallback(self):
        # A tiny committee factor can select nobody; leader() must still work.
        election = ReputationElection({addr(i): 1.0 for i in range(4)}, 0.01)
        assert election.leader(b"seed", 0) in election.members

    def test_validation(self):
        with pytest.raises(ConsensusError):
            ReputationElection({})
        with pytest.raises(ConsensusError):
            ReputationElection({addr(0): 0.0})
        with pytest.raises(ConsensusError):
            ReputationElection({addr(0): 1.0}, committee_factor=0)
        with pytest.raises(ConsensusError):
            self._election().empirical_leader_distribution(b"s", 0)


class TestEqualizationGain:
    def test_gain_above_one_when_helpful(self):
        raw = {addr(0): 0.8, addr(1): 0.1, addr(2): 0.1}
        adjusted = {addr(0): 0.34, addr(1): 0.33, addr(2): 0.33}
        assert equalization_gain(raw, adjusted) > 10

    def test_perfect_adjustment_infinite(self):
        raw = {addr(0): 0.6, addr(1): 0.4}
        adjusted = {addr(0): 0.5, addr(1): 0.5}
        assert equalization_gain(raw, adjusted) == float("inf")

    def test_already_equal_is_one(self):
        equal = {addr(0): 0.5, addr(1): 0.5}
        assert equalization_gain(equal, equal) == 1.0

"""Other Proof-of-X election mechanisms (§VI-E).

The paper notes that "some other Proof-of-X mechanisms can replace the
Proof-of-Work mechanism of Themis algorithm after some modifications" and
sketches two:

* **Proof-of-Stake** — "the *coinDay* of a node is public information, and
  the larger coinDay, the larger the target value of the puzzle to solve.
  To avoid the problem of inequality and predictability caused by the
  different coinDay, the way to calculate coinDay needs to be modified."
  :class:`StakeElection` implements exactly that modification: raw coinDay
  scales the puzzle target (stake-weighted lottery), and the Themis multiple
  ``m_i`` divides it back out, so the *effective* stake — like effective
  computing power in §IV-A — equalizes across members.

* **Proof-of-Reputation** — "the leader of each round is uniquely determined
  according to the node's reputation.  So it's recommended to combine
  committee establishment and leader election mechanism similar to those in
  Algorand."  :class:`ReputationElection` implements the recommended shape:
  a per-round VRF-style lottery (hash of seed ‖ member, keyed by round)
  weighted by reputation, with a committee cutoff — unpredictable before the
  round seed is known, reputation-weighted after.

Both plug into the same abstractions as PoW: an election yields per-node
win rates that the mining oracle machinery can race, so every Themis metric
(σ_f², σ_p²) applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from statistics import pvariance

from repro.crypto.hashing import sha256
from repro.errors import ConsensusError


@dataclass(frozen=True)
class StakeAccount:
    """A member's stake: balance and how long it has been held."""

    balance: float
    held_days: float

    def coin_day(self) -> float:
        """Classic PoS coinDay: balance × holding time."""
        return self.balance * self.held_days


class StakeElection:
    """Themis-adapted Proof-of-Stake election (§VI-E, item 1).

    Win rate of member *i* is ``coinDay_i / m_i`` normalized over members —
    the PoS analogue of Eq. 3's effective computing power.  Feeding realized
    block counts back through Eq. 6 (the caller reuses
    :func:`repro.core.difficulty.next_multiples`) drives the effective stake
    toward uniform, which is the "modification of the way coinDay is
    calculated" the paper calls for.
    """

    def __init__(self, stakes: Mapping[bytes, StakeAccount]) -> None:
        if not stakes:
            raise ConsensusError("stake election needs at least one member")
        for member, account in stakes.items():
            if account.balance < 0 or account.held_days < 0:
                raise ConsensusError(f"negative stake for {member.hex()[:8]}")
        self._stakes = dict(stakes)

    @property
    def members(self) -> list[bytes]:
        return list(self._stakes)

    def raw_weights(self) -> dict[bytes, float]:
        """Unadjusted coinDay weights (plain PoS — unequal, predictable)."""
        return {m: acct.coin_day() for m, acct in self._stakes.items()}

    def effective_weights(self, multiples: Mapping[bytes, float]) -> dict[bytes, float]:
        """CoinDay divided by the Themis multiple (the §VI-E modification)."""
        weights = {}
        for member, account in self._stakes.items():
            multiple = multiples.get(member, 1.0)
            if multiple < 1.0:
                raise ConsensusError("multiples must be >= 1 (Eq. 6)")
            weights[member] = account.coin_day() / multiple
        return weights

    def win_probabilities(
        self, multiples: Mapping[bytes, float] | None = None
    ) -> dict[bytes, float]:
        """Per-round win probabilities (Eq. 3 with stake for power)."""
        weights = (
            self.effective_weights(multiples)
            if multiples is not None
            else self.raw_weights()
        )
        total = sum(weights.values())
        if total <= 0:
            raise ConsensusError("total stake weight must be positive")
        return {m: w / total for m, w in weights.items()}


class ReputationElection:
    """Themis-adapted Proof-of-Reputation election (§VI-E, item 2).

    Each round derives a lottery ticket per member from a public round seed:
    ``ticket = H(seed ‖ round ‖ member) / 2^256``, an Algorand-style
    cryptographic sortition stand-in.  A member joins the round's committee
    when ``ticket < reputation_i / Σ reputation · committee_factor``; the
    committee member with the lowest ticket leads.  Before the seed is
    published the leader is unpredictable; reputation still weights the odds.
    """

    def __init__(
        self, reputations: Mapping[bytes, float], committee_factor: float = 4.0
    ) -> None:
        if not reputations:
            raise ConsensusError("reputation election needs members")
        if committee_factor <= 0:
            raise ConsensusError("committee factor must be positive")
        for member, reputation in reputations.items():
            if reputation <= 0:
                raise ConsensusError(f"non-positive reputation for {member.hex()[:8]}")
        self._reputations = dict(reputations)
        self.committee_factor = committee_factor

    @property
    def members(self) -> list[bytes]:
        return list(self._reputations)

    def _ticket(self, seed: bytes, round_index: int, member: bytes) -> float:
        digest = sha256(seed + round_index.to_bytes(8, "big") + member)
        return int.from_bytes(digest, "big") / float(1 << 256)

    def committee(self, seed: bytes, round_index: int) -> list[bytes]:
        """Members whose lottery ticket clears their reputation threshold."""
        total = sum(self._reputations.values())
        selected = []
        for member, reputation in self._reputations.items():
            threshold = min(1.0, self.committee_factor * reputation / total)
            if self._ticket(seed, round_index, member) < threshold:
                selected.append(member)
        return selected

    def leader(self, seed: bytes, round_index: int) -> bytes:
        """The committee member with the lowest ticket (deterministic given
        the seed, unpredictable before it)."""
        committee = self.committee(seed, round_index)
        candidates = committee if committee else self.members
        return min(candidates, key=lambda m: self._ticket(seed, round_index, m))

    def empirical_leader_distribution(
        self, seed: bytes, rounds: int
    ) -> dict[bytes, float]:
        """Leader frequencies over many rounds (for σ_f²-style analysis)."""
        if rounds < 1:
            raise ConsensusError("need at least one round")
        counts: dict[bytes, int] = {m: 0 for m in self.members}
        for round_index in range(rounds):
            counts[self.leader(seed, round_index)] += 1
        return {m: c / rounds for m, c in counts.items()}


def equalization_gain(
    raw: Mapping[bytes, float], adjusted: Mapping[bytes, float]
) -> float:
    """Ratio Var(raw) / Var(adjusted) of two probability assignments.

    Quantifies how much a Themis-style adjustment improved a Proof-of-X
    mechanism's Unpredictability (> 1 means the adjustment helped).
    """
    raw_var = pvariance(list(raw.values()))
    adj_var = pvariance(list(adjusted.values()))
    if adj_var == 0:
        return float("inf") if raw_var > 0 else 1.0
    return raw_var / adj_var

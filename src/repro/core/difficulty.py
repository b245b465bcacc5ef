"""Self-adaptive block-producing difficulty adjustment (§IV-A, §IV-B).

Every node *i* mines at a personal difficulty ``D_i^e = m_i^e · D_base^e``.

* The *multiple* ``m_i`` tracks node *i*'s excess power: every epoch of ``Δ``
  main-chain blocks it is re-estimated from the node's realized frequency,

      m_i^{e+1} = max((f_i^e / F0) · m_i^e, 1) = max((n·q_i^e / Δ) · m_i^e, 1)

  with ``m_i^0 = 1`` (Eq. 6).  The frequency ``q_i^e/Δ`` is the unbiased
  binomial MLE of the node's block-producing probability (Eq. 4–5), so the
  multiplicative update drives every node's *effective* power ``h_i/m_i``
  toward the common floor ``H0`` and the probabilities toward ``1/n``.

* The *basic difficulty* ``D_base`` pins the whole network's expected block
  interval to ``I0``: Eq. 7 gives ``E(D_base) = T0·I0·n·H0 / T_max``, and each
  epoch ``D_base`` is re-scaled by the ratio of the target interval to the
  observed one, and by ``n^{e+1}/n^e`` on membership change (§IV-C).

Everything here is a pure function of on-chain observables, which is the
paper's key synchronization property: "each node can calculate the current
block-producing difficulty of all nodes according to the same blockchain
information and the same rules ... without extra communication".
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.crypto.hashing import T_MAX
from repro.errors import DifficultyError

#: Lower bound for the multiple (Eq. 6's ``max(..., 1)``) and for D_base
#: ("D_base >= 1", §IV-B).
MIN_MULTIPLE = 1.0
MIN_BASE_DIFFICULTY = 1.0


@dataclass(frozen=True)
class DifficultyParams:
    """Deployment-wide difficulty constants.

    Attributes:
        t0: puzzle target at difficulty 1.  Simulations default to ``T_MAX``
            so that Eq. 7's ``E(D_base) = T0·I0·n·H0/T_max`` stays >= 1 for
            laptop-scale hash rates; a production deployment would use a
            Bitcoin-style ``2**224``.
        i0: expected block interval ``I0`` in seconds (§IV-B).
        h0: minimum per-node puzzle evaluations per second ``H0`` (§IV-B).
        beta: epoch length factor; the epoch is ``Δ = β·n`` blocks (§VII-A,
            which runs the evaluation at β = 8, inside the recommended
            [7, 11] band of Fig. 9).
        initial_base_scale: testbed calibration factor for the *initial*
            ``D_base`` only.  Eq. 7 assumes every node invests exactly
            ``H0``; when the initial power distribution is known to be
            heavier (Fig. 3 pools invest up to 180×H0), scaling the genesis
            ``D_base`` by ``Σh_i/(n·H0)`` avoids a sub-second block storm in
            epoch 0.  Subsequent epochs are governed purely by the §IV-B
            interval controller either way.
    """

    t0: int = T_MAX
    i0: float = 10.0
    h0: float = 1.0
    beta: float = 8.0
    initial_base_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.i0 <= 0:
            raise DifficultyError("I0 must be positive")
        if self.h0 <= 0:
            raise DifficultyError("H0 must be positive")
        if self.beta <= 0:
            raise DifficultyError("beta must be positive")
        if not 0 < self.t0 <= T_MAX:
            raise DifficultyError("T0 must be in (0, T_MAX]")
        if self.initial_base_scale <= 0:
            raise DifficultyError("initial_base_scale must be positive")

    def epoch_length(self, n: int) -> int:
        """Blocks per difficulty-adjustment epoch, ``Δ = β·n`` (>= 1)."""
        if n < 1:
            raise DifficultyError("n must be positive")
        return max(1, round(self.beta * n))

    def initial_base_difficulty(self, n: int) -> float:
        """``E(D_base)`` from Eq. 7, clamped to the §IV-B floor of 1.

        Eq. 7 equates the per-hash success probability ``(T0/D_base)/T_max``
        with one network-wide success per ``I0·n·H0`` hashes; the optional
        calibration scale corrects for a known heavier-than-H0 launch
        distribution (see :attr:`initial_base_scale`).
        """
        value = self.t0 * self.i0 * n * self.h0 / T_MAX * self.initial_base_scale
        return max(MIN_BASE_DIFFICULTY, value)


@dataclass(frozen=True)
class DifficultyTable:
    """The network-wide difficulty assignment for one epoch.

    Immutable: epoch *e*'s table is fully determined by epoch *e-1*'s chain
    segment, so every honest node derives the identical object.
    """

    epoch: int
    base: float
    multiples: Mapping[bytes, float]

    def __post_init__(self) -> None:
        if self.base < MIN_BASE_DIFFICULTY:
            raise DifficultyError(f"D_base must be >= 1, got {self.base}")
        for node, multiple in self.multiples.items():
            if multiple < MIN_MULTIPLE:
                raise DifficultyError(
                    f"multiple for {node.hex()[:8]} must be >= 1, got {multiple}"
                )
        # Tables are immutable and shared by every lookup of the epoch, so
        # the per-node total difficulty ``m_i · D_base`` is precomputed once
        # here; ``difficulty()`` on the mining/validation hot path is then a
        # dict probe instead of a recomputation.  Stored via
        # ``object.__setattr__`` (frozen dataclass) as a non-field attribute
        # so equality, repr and serde stay derived from the declared fields.
        object.__setattr__(
            self,
            "_difficulties",
            {node: multiple * self.base for node, multiple in self.multiples.items()},
        )

    def multiple(self, node: bytes) -> float:
        """``m_i^e`` for a member (1.0 for nodes without history)."""
        return self.multiples.get(node, MIN_MULTIPLE)

    def difficulty(self, node: bytes) -> float:
        """Total difficulty ``D_i^e = m_i^e · D_base^e`` (§IV-B).

        A precomputed per-epoch table lookup; nodes without history fall
        back to ``1 · D_base``.
        """
        cached = self._difficulties.get(node)  # type: ignore[attr-defined]
        return cached if cached is not None else MIN_MULTIPLE * self.base

    @classmethod
    def initial(cls, members: Sequence[bytes], params: DifficultyParams) -> "DifficultyTable":
        """Epoch-0 table: all multiples 1 (Eq. 6's ``m_i^0 = 1``)."""
        return cls(
            epoch=0,
            base=params.initial_base_difficulty(len(members)),
            multiples={m: MIN_MULTIPLE for m in members},
        )


def next_multiples(
    table: DifficultyTable,
    block_counts: Mapping[bytes, int],
    members: Sequence[bytes],
    epoch_blocks: int,
) -> dict[bytes, float]:
    """Apply Eq. 6 to every member: ``m_i^{e+1} = max((n·q_i/Δ)·m_i, 1)``.

    Args:
        table: epoch *e*'s table.
        block_counts: ``q_i^e`` — main-chain blocks per producer in epoch *e*
            (footnote 6: counted on the local main chain under GEOST).
        members: the consensus node set for epoch *e+1*; new joiners start at
            multiple 1.
        epoch_blocks: ``Δ``, the number of blocks counted.
    """
    if epoch_blocks < 1:
        raise DifficultyError("epoch must contain at least one block")
    n = len(members)
    if n < 1:
        raise DifficultyError("member set must be non-empty")
    updated: dict[bytes, float] = {}
    for node in members:
        previous = table.multiple(node)
        q = block_counts.get(node, 0)
        ratio = n * q / epoch_blocks  # f_i / F0 with F0 = 1/n
        updated[node] = max(ratio * previous, MIN_MULTIPLE)
    return updated


def next_base_difficulty(
    current_base: float,
    observed_interval: float,
    expected_interval: float,
    n_current: int,
    n_next: int,
) -> float:
    """Retune ``D_base`` for the next epoch (§IV-B, §IV-C).

    Two corrections compose multiplicatively:

    * interval control — the block rate is inversely proportional to the
      difficulty, so restoring the target interval scales ``D_base`` by
      ``expected_interval / observed_interval`` (< 1 when blocks arrived
      slower than ``I0``, i.e. the network's effective power dropped);

    * membership — ``D_base`` scales by ``n^{e+1}/n^e`` because each node
      contributes ≈ ``H0`` effective power after convergence (§IV-C).
    """
    if observed_interval <= 0 or expected_interval <= 0:
        raise DifficultyError("intervals must be positive")
    if n_current < 1 or n_next < 1:
        raise DifficultyError("node counts must be positive")
    interval_factor = expected_interval / observed_interval
    membership_factor = n_next / n_current
    return max(MIN_BASE_DIFFICULTY, current_base * interval_factor * membership_factor)


def advance_table(
    table: DifficultyTable,
    block_counts: Mapping[bytes, int],
    members: Sequence[bytes],
    epoch_blocks: int,
    observed_interval: float,
    params: DifficultyParams,
    n_next: int | None = None,
) -> DifficultyTable:
    """Derive epoch *e+1*'s full table from epoch *e*'s observations."""
    n_next = n_next if n_next is not None else len(members)
    return DifficultyTable(
        epoch=table.epoch + 1,
        base=next_base_difficulty(
            table.base, observed_interval, params.i0, max(1, len(members)), n_next
        ),
        multiples=next_multiples(table, block_counts, members, epoch_blocks),
    )

"""The mining oracle: an exact stochastic stand-in for hash grinding.

A node with hash rate ``h`` (puzzle evaluations per second) mining at
difficulty ``D`` succeeds on each evaluation independently with probability
``(T0/D) / T_max`` (left side of Eq. 7).  The number of evaluations until
success is geometric, so the *time* to solve is geometric with step ``1/h`` —
indistinguishable from an exponential with rate

    rate = h · (T0/D) / T_max

for the tiny per-trial probabilities of any realistic difficulty.  The paper
itself leans on this ("the block interval in Themis complies exponential
distribution", proof of Prop. 1).

The oracle samples those solve times from the simulator's seeded generator.
``tests/test_mining.py`` cross-validates it against the real SHA-256 miner:
the empirical mean solve count of nonce grinding matches ``1/p`` within
sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.crypto.hashing import success_probability
from repro.errors import SimulationError


@dataclass
class MiningOracle:
    """Samples time-to-solve for a (hash rate, difficulty) pair.

    Attributes:
        rng: the run's random generator (shared with the simulator).
        t0: base target T0 of the deployment.
    """

    rng: np.random.Generator
    t0: int

    def solve_rate(self, hash_rate: float, difficulty: float) -> float:
        """Expected solves per second: ``h · (T0/D)/T_max``."""
        if hash_rate <= 0:
            raise SimulationError(f"hash rate must be positive, got {hash_rate}")
        return hash_rate * success_probability(self.t0, difficulty)

    def sample_solve_time(self, hash_rate: float, difficulty: float) -> float:
        """Draw one Exp(rate) time-to-solve in seconds."""
        rate = self.solve_rate(hash_rate, difficulty)
        return float(self.rng.exponential(1.0 / rate))

    def sample_solve_times(
        self,
        hash_rates: "Sequence[float]",
        difficulties: "Sequence[float]",
    ) -> np.ndarray:
        """Draw one solve time per (hash rate, difficulty) pair, vectorized.

        Bit-identical to calling :meth:`sample_solve_time` once per pair in
        order: ``Generator.exponential(scale)`` is ``scale *
        standard_exponential()`` over the same ziggurat stream, so one
        vectorized ``standard_exponential(n)`` consumes the generator
        exactly like ``n`` scalar draws, and the per-element ``* (1/rate)``
        reproduces the scalar rounding.  Safe to use only where the draws
        *are* consecutive on the shared run generator — e.g. fleet start-up,
        where every miner arms back-to-back with no interleaved jitter or
        workload draws.  Mid-run draws (a fired timer, a difficulty that
        changed on a node's new head) interleave with propagation-jitter
        draws and must stay scalar to preserve the global draw order.
        """
        if len(hash_rates) != len(difficulties):
            raise SimulationError("hash_rates and difficulties must align")
        scales = np.array(
            [
                1.0 / self.solve_rate(h, d)
                for h, d in zip(hash_rates, difficulties, strict=True)
            ],
            dtype=float,
        )
        return self.rng.standard_exponential(len(scales)) * scales


def win_probabilities(
    oracle: MiningOracle,
    hash_rates: list[float],
    difficulties: list[float],
) -> np.ndarray:
    """Per-node probability of producing the next block (Eq. 3).

    For independent exponential racers the winner is node *i* with probability
    ``rate_i / Σ rate_j`` — exactly ``(h_i/m_i)/Σ(h_j/m_j)`` once the shared
    ``D_base`` cancels.  This is the quantity whose variance defines
    *Unpredictability* (Eq. 2).
    """
    rates = np.array(
        [oracle.solve_rate(h, d) for h, d in zip(hash_rates, difficulties, strict=True)],
        dtype=float,
    )
    return rates / rates.sum()

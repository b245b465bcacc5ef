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

The oracle samples those solve times from the run's seeded generator, by
inverse CDF from one ``random()`` each (:func:`repro.rng.exponential`).
``tests/test_mining.py`` cross-validates it against the real SHA-256 miner:
the empirical mean solve count of nonce grinding matches ``1/p`` within
sampling error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.crypto.hashing import success_probability
from repro.errors import SimulationError
from repro.rng import exponential


@dataclass
class MiningOracle:
    """Samples time-to-solve for a (hash rate, difficulty) pair.

    Attributes:
        rng: the run's random generator (shared with the simulator).
        t0: base target T0 of the deployment.
    """

    rng: random.Random
    t0: int

    def solve_rate(self, hash_rate: float, difficulty: float) -> float:
        """Expected solves per second: ``h · (T0/D)/T_max``."""
        if hash_rate <= 0:
            raise SimulationError(f"hash rate must be positive, got {hash_rate}")
        return hash_rate * success_probability(self.t0, difficulty)

    def sample_solve_time(self, hash_rate: float, difficulty: float) -> float:
        """Draw one Exp(rate) time-to-solve in seconds."""
        rate = self.solve_rate(hash_rate, difficulty)
        return exponential(self.rng, rate)


def win_probabilities(
    oracle: MiningOracle,
    hash_rates: list[float],
    difficulties: list[float],
) -> list[float]:
    """Per-node probability of producing the next block (Eq. 3).

    For independent exponential racers the winner is node *i* with probability
    ``rate_i / Σ rate_j`` — exactly ``(h_i/m_i)/Σ(h_j/m_j)`` once the shared
    ``D_base`` cancels.  This is the quantity whose variance defines
    *Unpredictability* (Eq. 2).
    """
    rates = [
        oracle.solve_rate(h, d) for h, d in zip(hash_rates, difficulties, strict=True)
    ]
    total = math.fsum(rates)
    return [rate / total for rate in rates]

"""Bandwidth and latency model.

§VII-A fixes the link parameters of the evaluation: "the bandwidth of all
connections between nodes are set to 20 Mbps ... and the minimum transmission
delay between nodes is 100 ms.  The delay varies with the amount of
transmitted data."

The model charges each transfer:

* a *serialization time* ``size_bytes * 8 / bandwidth_bps`` during which the
  sender's uplink is busy (transfers from one node queue behind each other —
  this is what makes an n-fan-out PBFT leader slow at large n);
* a fixed *propagation delay* (the 100 ms minimum), plus optional uniform
  jitter for tie-breaking realism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import NetworkError

#: §VII-A defaults.
DEFAULT_BANDWIDTH_BPS = 20_000_000  # 20 Mbps
DEFAULT_MIN_DELAY = 0.100  # 100 ms


@dataclass(frozen=True)
class LinkModel:
    """Deterministic-by-seed link timing model.

    Attributes:
        bandwidth_bps: per-node uplink capacity in bits per second.
        min_delay: fixed propagation delay in seconds.
        jitter: half-width of uniform extra delay in seconds (0 disables).
    """

    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    min_delay: float = DEFAULT_MIN_DELAY
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise NetworkError("bandwidth must be positive")
        if self.min_delay < 0 or self.jitter < 0:
            raise NetworkError("delays must be non-negative")

    def serialization_time(self, size_bytes: int) -> float:
        """Uplink occupancy for a transfer of ``size_bytes``."""
        if size_bytes < 0:
            raise NetworkError("size must be non-negative")
        return size_bytes * 8.0 / self.bandwidth_bps

    def propagation_delay(self, rng: random.Random) -> float:
        """Propagation delay: ``min_delay`` plus ``jitter * rng.random()``
        (no draw when ``jitter`` is 0)."""
        if self.jitter == 0.0:
            return self.min_delay
        return self.min_delay + self.jitter * rng.random()

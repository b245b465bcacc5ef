"""The :class:`~repro.net.clock.Clock` backend over the asyncio event loop.

Consensus code reads ``ctx.sim.now`` and arms timers with
``ctx.sim.schedule`` regardless of backend.  Here those map onto the
running asyncio loop: ``now`` is loop time rebased to zero at construction
(so block timestamps start near 0.0 exactly like a simulated run), and
``schedule`` returns the ``loop.call_later`` handle itself.

The process's randomness is one explicitly seeded :class:`random.Random`
(see :mod:`repro.rng`), kept here for the harness to hand to the mining
oracle and the workload — live mode keeps mining draws reproducible *per
process* even though delivery timing is real.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Callable

from repro.rng import seeded_rng


class LiveClock:
    """Wall-clock :class:`~repro.net.clock.Clock` for live deployments.

    ``seed`` must be a non-negative integer (:func:`repro.rng.seeded_rng`).
    """

    def __init__(self, *, seed: int, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self.rng: random.Random = seeded_rng(seed)

    @property
    def now(self) -> float:
        """Seconds since this clock was created (event-loop time)."""
        return self._loop.time() - self._epoch

    def schedule(self, delay: float, callback: Callable[[], None]) -> asyncio.TimerHandle:
        """Run ``callback`` after ``delay`` real seconds."""
        return self._loop.call_later(max(0.0, delay), callback)

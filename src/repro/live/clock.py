"""The :class:`~repro.net.clock.Clock` backend over the asyncio event loop.

Consensus code reads ``ctx.sim.now`` and arms timers with
``ctx.sim.schedule`` regardless of backend.  Here those map onto the
running asyncio loop: ``now`` is loop time rebased to zero at construction
(so block timestamps start near 0.0 exactly like a simulated run), and
timers are ``loop.call_later`` handles.

The RNG is still one explicitly seeded :class:`random.Random` (see
:mod:`repro.rng`) — live mode keeps mining draws reproducible *per
process* even though delivery timing is real.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Callable

from repro.rng import exponential, seeded_rng


class LiveTimer:
    """:class:`~repro.net.clock.TimerHandle` over ``loop.call_later``."""

    def __init__(self, handle: asyncio.TimerHandle, time: float) -> None:
        self._handle = handle
        self._time = time

    def cancel(self) -> None:
        """Cancel the timer; a no-op if it already fired."""
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._handle.cancelled()

    @property
    def time(self) -> float:
        """Scheduled fire time on the owning clock."""
        return self._time


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

    def schedule(self, delay: float, callback: Callable[[], None]) -> LiveTimer:
        """Run ``callback`` after ``delay`` real seconds."""
        delay = max(0.0, delay)
        handle = self._loop.call_later(delay, callback)
        return LiveTimer(handle, self.now + delay)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> LiveTimer:
        """Run ``callback`` at absolute clock time ``time``."""
        return self.schedule(time - self.now, callback)

    def exponential(self, rate: float) -> float:
        """Draw an exponential inter-arrival time with the given rate."""
        return exponential(self.rng, rate)

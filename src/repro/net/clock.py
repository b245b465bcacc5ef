"""The clock/scheduler abstraction node code runs against.

Everything a consensus node does with time — arming mining timers, sync
timeouts, reading "now" for block timestamps, drawing seeded randomness —
goes through :class:`Clock`.  Two implementations exist:

* :class:`~repro.net.simulator.Simulator` — the deterministic discrete-event
  engine (simulated seconds, one seeded generator per run);
* :class:`~repro.live.clock.LiveClock` — asyncio wall-clock timers for the
  live TCP deployment (real seconds since process start).

Node code must not assume it can *drive* the clock (``Simulator.run`` is
not part of the interface); harness code that owns the concrete
:class:`Simulator` keeps a direct reference for that.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Protocol, runtime_checkable


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable scheduled callback."""

    def cancel(self) -> None:
        """Cancel the timer; a no-op if it already fired or was cancelled."""
        ...

    @property
    def cancelled(self) -> bool:
        """True once cancelled."""
        ...

    @property
    def time(self) -> float:
        """Scheduled firing time on this clock's axis."""
        ...


@runtime_checkable
class Clock(Protocol):
    """Scheduling, current time, and the run's seeded randomness."""

    @property
    def now(self) -> float:
        """Current time in seconds on this clock's axis."""
        ...

    @property
    def rng(self) -> random.Random:
        """The seeded generator every stochastic component draws from."""
        ...

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` after a non-negative delay."""
        ...

    def schedule_at(self, time: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` at an absolute time on this clock's axis."""
        ...

    def exponential(self, rate: float) -> float:
        """Sample an Exp(rate) interarrival time from the run's generator."""
        ...

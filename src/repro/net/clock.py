"""The clock/scheduler abstraction node code runs against.

Everything a consensus node does with time — arming mining timers, sync
timeouts, reading "now" for block timestamps — goes through :class:`Clock`.
Two implementations exist:

* :class:`~repro.net.simulator.Simulator` — the deterministic discrete-event
  engine (simulated seconds, one seeded generator per run);
* :class:`~repro.live.clock.LiveClock` — asyncio wall-clock timers for the
  live TCP deployment (real seconds since process start).

The protocol holds exactly what node code calls through ``ctx.sim``
(``tests/test_imports.py`` checks it).  Seeded randomness reaches nodes
through the :class:`~repro.mining.oracle.MiningOracle`, not the clock.
Harness code that owns the concrete :class:`Simulator` keeps a direct
reference for what is not here (``run``, ``schedule_at``, ``rng``).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol, runtime_checkable


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable scheduled callback."""

    def cancel(self) -> None:
        """Cancel the timer; a no-op if it already fired or was cancelled."""
        ...


@runtime_checkable
class Clock(Protocol):
    """Scheduling and the current time."""

    @property
    def now(self) -> float:
        """Current time in seconds on this clock's axis."""
        ...

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` after a non-negative delay."""
        ...

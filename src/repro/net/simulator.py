"""Deterministic discrete-event simulation engine.

All experiments in this reproduction run on a single event loop: block
production races, gossip propagation, PBFT phase timers and attack behaviors
are all events on one heap.  Determinism is a hard requirement (identical
seeds must give identical block trees), so:

* the event queue breaks time ties by a monotonically increasing sequence
  number — insertion order, never object identity;
* all randomness flows through one seeded :class:`random.Random` owned by
  the simulator (see :mod:`repro.rng`).

Events are callbacks scheduled at absolute or relative times and can be
cancelled (timers that get re-armed, e.g. a miner whose difficulty changed
at an epoch rollover, are cancels + reschedules).

Hot-path layout: the heap holds plain ``(time, seq, event)`` tuples, so
every sift comparison is a C tuple comparison that resolves on the float
time (or the unique int sequence number for ties) without ever calling
back into Python.  Cancelled events are tombstones — cheap to leave in
place.  A miner keeps its timer across head moves at an unchanged
difficulty, so mining makes few of them (154 for 1,303 blocks at n = 40 ×
4 epochs), but a whole fleet re-draws at each epoch rollover, and sync
timeouts and stopped or crashed nodes cancel too.  The simulator counts live
tombstones and compacts the heap whenever they exceed half the queue
(amortized O(1) per cancel), keeping both memory and per-pop cost bounded.
"""

from __future__ import annotations

import gc
import heapq
import random
from collections.abc import Callable

from repro.errors import SimulationError
from repro.rng import seeded_rng

#: Queues smaller than this are never compacted (the rebuild would cost more
#: than the tombstones).
_PURGE_MIN_QUEUE = 64


class _ScheduledEvent:
    """A scheduled callback; doubles as its own cancellation handle.

    Slot-backed and tuple-indexed (the heap orders ``(time, seq)`` tuples
    that reference these), so scheduling allocates exactly one object.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "fired", "_sim")

    def __init__(
        self, time: float, seq: int, callback: Callable[[], None], sim: "Simulator"
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event; idempotent, and flag-only after it fired.

        A fired event is already off the heap, so a late cancel just sets
        the flag without touching the simulator's tombstone accounting.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if not self.fired:
            self._sim._note_cancel()


#: Public alias: the opaque handle returned by ``schedule``/``schedule_at``.
EventHandle = _ScheduledEvent


class Simulator:
    """A seeded discrete-event simulator.

    Attributes:
        now: current simulated time in seconds.
        rng: the run's single random generator; every stochastic component
            (mining oracle, gossip fan-out sampling, workloads, attacks) must
            draw from it so one seed reproduces the whole run.  ``seed`` must
            be a non-negative integer (:func:`repro.rng.seeded_rng`).
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng: random.Random = seeded_rng(seed)
        self._queue: list[tuple[float, int, _ScheduledEvent]] = []
        self._next_seq = 0
        self._cancelled = 0  # live tombstones still in the heap
        self._events_processed = 0
        self._running = False
        self._seq = 0  # sequence number of the event in execution
        self._reserved_until = 0.0  # latest time a place was reserved for
        #: Totals of events counted without a callback (a network's provable
        #: duplicate deliveries); read into :attr:`events_processed`.
        self.uncalled_counts: list[Callable[[], int]] = []

    @property
    def events_processed(self) -> int:
        """Number of events so far: callbacks run plus :attr:`uncalled_counts`."""
        return self._events_processed + sum(count() for count in self.uncalled_counts)

    @property
    def position(self) -> tuple[float, int]:
        """``(time, seq)`` of the event in execution: a place in the event
        order, queued or only reserved, has had its turn iff it sorts below."""
        return self.now, self._seq

    def reserve(self, time: float) -> int:
        """Take the place ``schedule_at(time, ...)`` would get; queue nothing.

        For an event whose only effect is to be counted: its owner compares
        ``(time, seq)`` with :attr:`position` to see its turn pass, and can
        still make it real, in that place, with ``schedule_at(time, cb, seq)``.
        """
        if time > self._reserved_until:
            self._reserved_until = time
        self._next_seq += 1
        return self._next_seq - 1

    @property
    def pending_events(self) -> int:
        """Events scheduled but not yet fired, excluding cancelled ones."""
        return len(self._queue) - self._cancelled

    def schedule_at(
        self, time: float, callback: Callable[[], None], seq: int | None = None
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time (``seq``: the
        place :meth:`reserve` gave out for that time)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time:.6f} < now {self.now:.6f}"
            )
        if seq is None:
            seq = self._next_seq
            self._next_seq = seq + 1
        event = _ScheduledEvent(time, seq, callback, self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after a non-negative delay.

        Open-coded rather than delegating to :meth:`schedule_at`: this is
        the single hottest allocation site in a simulated run (every gossip
        hop schedules a delivery), and a non-negative delay from ``now``
        can never land in the past, so the extra call layer and its
        re-validation are pure overhead.
        """
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        seq = self._next_seq
        self._next_seq = seq + 1
        event = _ScheduledEvent(time, seq, callback, self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def _note_cancel(self) -> None:
        """Account for one new tombstone; compact when they dominate."""
        self._cancelled += 1
        if (
            len(self._queue) >= _PURGE_MIN_QUEUE
            and self._cancelled * 2 > len(self._queue)
        ):
            self._purge()

    def _purge(self) -> None:
        """Drop all tombstones and restore the heap invariant in place.

        In place (``[:]``) so that a compaction triggered from inside a
        running callback is seen by the ``run`` loop's local binding.
        """
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def discard_pending(self) -> None:
        """Drop every queued event; the clock and the counters stay put.

        For a finished run whose simulator outlives it (a result keeps it
        readable): queued callbacks would otherwise keep every object they
        close over alive with it.
        """
        if self._running:
            raise SimulationError("cannot discard events while the simulator runs")
        self._queue.clear()
        self._cancelled = 0

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Drain the event queue.

        Args:
            until: stop once the next event is later than this time.
            max_events: stop after this many executed callbacks (runaway
                guard; an event that is only counted, see :meth:`reserve`,
                runs none).
            stop_when: predicate checked after every executed callback;
                return ``True`` to stop (used e.g. to stop at a target chain
                height).

        Clock semantics (all stop conditions compose; the first one to
        trigger decides):

        * ``now`` never exceeds ``until`` — an event past the horizon is
          left queued and the clock advances exactly to ``until``;
        * a run that drains its queue (including a run whose queue was
          empty to begin with) advances the clock to ``until``;
        * stopping via ``stop_when`` or ``max_events`` leaves ``now`` at
          the last executed event's time (which is ``<= until`` whenever
          ``until`` was given, because later events never execute) and
          leaves the rest of the queue intact for a subsequent ``run``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        queue = self._queue  # compaction mutates in place; binding stays valid
        # The event loop allocates heavily (one heap tuple, event object and
        # callback closure per hop) but produces no reference cycles — events
        # are freed by refcount as they pop, and the block tree's parent
        # links are one-way.  Cyclic GC passes over those allocations are
        # pure overhead (~25% of a mining run), so collection is paused for
        # the duration of the loop and restored on exit.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            processed = 0
            while queue:
                time, seq, event = queue[0]
                if until is not None and time > until:
                    self.now = until
                    break
                heapq.heappop(queue)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.fired = True
                self.now = time
                self._seq = seq
                event.callback()
                self._events_processed += 1
                processed += 1
                if stop_when is not None and stop_when():
                    return
                if max_events is not None and processed >= max_events:
                    return
            else:  # drained: with no horizon, up to the last reserved place
                horizon = self._reserved_until if until is None else until
                if horizon > self.now:
                    self.now = horizon
            self._seq = self._next_seq  # every place up to ``now`` had its turn
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

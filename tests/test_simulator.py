"""Tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.net.simulator import Simulator
from repro.rng import exponential


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # no raise


class TestRunControl:
    def test_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_stop_when_predicate(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(stop_when=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_discard_pending_keeps_clock_and_counters(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.schedule(6.0, lambda: fired.append(6)).cancel()
        sim.run(max_events=1)
        sim.discard_pending()
        assert sim.pending_events == 0
        assert (sim.now, sim.events_processed) == (1.0, 1)
        sim.run()
        assert fired == [1]

    def test_an_event_holds_its_callback_only_while_queued(self):
        """A handle an owner keeps must not keep the owner alive through the
        event: a run's graph stays acyclic once it is released."""
        sim = Simulator()
        fired, cancelled, discarded = (
            sim.schedule(delay, lambda: None) for delay in (1.0, 2.0, 3.0)
        )
        cancelled.cancel()
        sim.run(max_events=1)
        assert discarded.callback is not None
        sim.discard_pending()
        assert [fired.callback, cancelled.callback, discarded.callback] == [None] * 3
        discarded.cancel()  # a late cancel is flag-only
        assert sim.pending_events == 0

    def test_discard_pending_refused_while_running(self):
        sim = Simulator()
        errors = []

        def discard():
            try:
                sim.discard_pending()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, discard)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert len(errors) == 1 and sim.events_processed == 2

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a, b = Simulator(seed=42).rng, Simulator(seed=42).rng
        assert [exponential(a, 2.0) for _ in range(10)] == [
            exponential(b, 2.0) for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        assert exponential(Simulator(seed=1).rng, 1.0) != exponential(Simulator(seed=2).rng, 1.0)

    @pytest.mark.parametrize("seed", [-1, -42])
    def test_negative_seed_is_refused(self, seed):
        """``random.Random`` seeds from ``abs(seed)``: -42 would replay 42."""
        with pytest.raises(SimulationError, match="non-negative"):
            Simulator(seed=seed)

    def test_non_integer_seed_is_refused(self):
        with pytest.raises(SimulationError, match="integer"):
            Simulator(seed=1.5)  # type: ignore[arg-type]

    def test_exponential_rate_validation(self):
        for rate in (0.0, -1.0):
            with pytest.raises(SimulationError, match="positive"):
                exponential(Simulator().rng, rate)

    def test_exponential_mean(self):
        rng = Simulator(seed=0).rng
        samples = [exponential(rng, 4.0) for _ in range(4000)]
        assert sum(samples) / len(samples) == pytest.approx(0.25, rel=0.1)


class TestHeapCompaction:
    """Regression tests for the cancelled-event heap leak.

    A miner fleet cancels and reschedules its solve timer on every received
    block; before tombstone compaction the heap retained every cancelled
    entry until its deadline drained, growing without bound.
    """

    def test_heap_stays_bounded_under_cancel_reschedule(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        for _ in range(10_000):
            handle.cancel()
            handle = sim.schedule(1.0, lambda: None)
        # One live timer; tombstones must have been compacted away rather
        # than accumulating all 10_000 cancelled entries.
        assert sim.pending_events == 1
        assert len(sim._queue) < 200

    def test_pending_events_counts_only_live_events(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending_events == 6

    def test_cancel_is_idempotent_in_accounting(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 1

    def test_purge_from_inside_a_callback_is_seen_by_the_run_loop(self):
        """Mass-cancellation inside a running callback triggers an in-place
        compaction; the loop's queue binding must observe it and the
        surviving events must still fire in order."""
        sim = Simulator()
        fired: list[str] = []
        victims = []

        def boom() -> None:
            for handle in victims:
                handle.cancel()
            fired.append("boom")

        sim.schedule(0.5, boom)
        victims.extend(
            sim.schedule(1.0 + i * 0.001, lambda: fired.append("cancelled"))
            for i in range(500)
        )
        sim.schedule(2.0, lambda: fired.append("end"))
        sim.run()
        assert fired == ["boom", "end"]
        assert sim.pending_events == 0

    def test_survivors_fire_in_order_after_purge(self):
        sim = Simulator()
        fired: list[int] = []
        keepers = [
            sim.schedule(float(i), lambda i=i: fired.append(i)) for i in range(1, 6)
        ]
        victims = [
            sim.schedule(0.2 + i * 0.001, lambda: fired.append(-1))
            for i in range(300)
        ]
        for handle in victims:
            handle.cancel()
        assert sim.pending_events == len(keepers)
        sim.run()
        assert fired == [1, 2, 3, 4, 5]


class TestRunClockSemantics:
    """The documented ``until`` x ``max_events`` x ``stop_when`` contract."""

    def test_now_never_exceeds_until(self):
        sim = Simulator()
        fired: list[str] = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert fired == []
        assert sim.pending_events == 1  # the late event is left queued
        sim.run(until=10.0)
        assert fired == ["late"]
        assert sim.now == 10.0

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired: list[str] = []
        sim.schedule(2.0, lambda: fired.append("edge"))
        sim.run(until=2.0)
        assert fired == ["edge"]
        assert sim.now == 2.0

    def test_empty_queue_run_advances_to_until(self):
        sim = Simulator()
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_run_without_until_on_empty_queue_leaves_clock(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0

    def test_drained_queue_advances_to_until(self):
        sim = Simulator()
        fired: list[str] = []
        sim.schedule(1.0, lambda: fired.append("x"))
        sim.run(until=9.0)
        assert fired == ["x"]
        assert sim.now == 9.0

    def test_max_events_leaves_clock_at_last_executed_event(self):
        sim = Simulator()
        fired: list[int] = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(until=10.0, max_events=2)
        assert sim.now == 2.0
        assert fired == [0, 1]
        assert sim.pending_events == 3
        sim.run(until=10.0)
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == 10.0

    def test_stop_when_leaves_queue_intact(self):
        sim = Simulator()
        fired: list[int] = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(until=10.0, stop_when=lambda: len(fired) >= 3)
        assert sim.now == 3.0
        assert fired == [0, 1, 2]
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == 5.0  # no until: clock rests at the last event

    def test_until_wins_when_it_comes_before_max_events(self):
        sim = Simulator()
        fired: list[int] = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(until=2.5, max_events=100)
        assert sim.now == 2.5
        assert fired == [0, 1]


class TestReservedPlaces:
    """``reserve``: a place in the event order for an event that is only counted."""

    def test_a_reserved_place_orders_like_the_event_it_stands_for(self):
        sim = Simulator()
        fired: list[str] = []
        sim.schedule_at(1.0, lambda: fired.append("before"))
        seq = sim.reserve(1.0)
        sim.schedule_at(1.0, lambda: fired.append("after"))
        sim.schedule_at(1.0, lambda: fired.append("reserved"), seq)
        sim.run()
        assert fired == ["before", "reserved", "after"]

    def test_position_tells_when_a_reserved_turn_has_passed(self):
        sim = Simulator()
        seen: list[bool] = []
        sim.schedule_at(1.0, lambda: seen.append((1.0, place) < sim.position))
        place = sim.reserve(1.0)
        sim.schedule_at(1.0, lambda: seen.append((1.0, place) < sim.position))
        sim.run(max_events=1)
        assert not (1.0, place) < sim.position  # stopped on the event before it
        sim.run(until=1.0)
        assert seen == [False, True]
        assert (1.0, place) < sim.position
        later = sim.reserve(1.0)  # taken once the clock rests at the horizon
        assert not (1.0, later) < sim.position

    def test_a_horizon_covers_every_place_up_to_it(self):
        sim = Simulator()
        on_edge, beyond = sim.reserve(2.0), sim.reserve(2.5)
        sim.run(until=2.0)
        assert (2.0, on_edge) < sim.position < (2.5, beyond)

    def test_drain_without_horizon_ends_at_the_last_reserved_place(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        place = sim.reserve(3.0)
        sim.run()
        assert sim.now == 3.0
        assert (3.0, place) < sim.position

    def test_events_processed_adds_what_owners_counted_without_a_callback(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.uncalled_counts.append(lambda: 4)
        sim.run()
        assert sim.events_processed == 5

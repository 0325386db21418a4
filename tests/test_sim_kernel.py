"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.sim.kernel import Simulator, SimulationError


class TestScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_callback_at_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_events_run_in_time_order(self, sim):
        seen = []
        for t in (5.0, 1.0, 3.0):
            sim.schedule(t, seen.append, t)
        sim.run()
        assert seen == [1.0, 3.0, 5.0]

    def test_ties_broken_by_insertion_order(self, sim):
        seen = []
        for tag in "abc":
            sim.schedule(1.0, seen.append, tag)
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_zero_delay_allowed(self, sim):
        seen = []
        sim.schedule(0.0, seen.append, 1)
        sim.run()
        assert seen == [1]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("entry", ["schedule", "schedule_at", "schedule_many", "reschedule"])
    def test_nan_time_rejected(self, sim, entry):
        """`delay < 0` is False for NaN, which then broke the heap's order."""
        fired = sim.schedule(1.0, lambda: None)
        sim.run()
        calls = {
            "schedule": lambda: sim.schedule(math.nan, lambda: None),
            "schedule_at": lambda: sim.schedule_at(math.nan, lambda: None),
            "schedule_many": lambda: sim.schedule_many([(math.nan, lambda: None)]),
            "reschedule": lambda: sim.reschedule(fired, math.nan, lambda: None),
        }
        with pytest.raises(SimulationError):
            calls[entry]()
        assert sim.pending == 0

    def test_callback_args_passed(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_callback_can_schedule_more(self, sim):
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 2.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        ev = sim.schedule(1.0, seen.append, 1)
        sim.cancel(ev)
        sim.run()
        assert seen == []

    def test_cancel_twice_is_noop(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        sim.run()

    def test_cancel_one_of_many(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        ev = sim.schedule(2.0, seen.append, "b")
        sim.schedule(3.0, seen.append, "c")
        sim.cancel(ev)
        sim.run()
        assert seen == ["a", "c"]

    def test_pending_excludes_cancelled(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.cancel(ev)
        assert sim.pending == 1


class TestRun:
    def test_run_until_stops_clock_exactly(self, sim):
        sim.schedule(10.0, lambda: None)
        end = sim.run(until=4.0)
        assert end == 4.0
        assert sim.now == 4.0
        assert sim.pending == 1

    def test_run_until_includes_events_at_horizon(self, sim):
        seen = []
        sim.schedule(4.0, seen.append, 1)
        sim.run(until=4.0)
        assert seen == [1]

    def test_run_resumable(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        sim.run(until=2.0)
        assert seen == ["a"]
        sim.run(until=10.0)
        assert seen == ["a", "b"]

    def test_run_empty_queue_returns_now(self, sim):
        assert sim.run() == 0.0

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_stop_interrupts_run(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, lambda: sim.stop())
        sim.schedule(3.0, seen.append, "b")
        sim.run()
        assert seen == ["a"]
        assert sim.pending == 1

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_returns_false_on_empty(self, sim):
        assert sim.step() is False

    def test_step_processes_single_event(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(2.0, seen.append, 2)
        assert sim.step() is True
        assert seen == [1]
        assert sim.now == 1.0

    def test_processed_counter(self, sim):
        for t in range(5):
            sim.schedule(float(t + 1), lambda: None)
        sim.run()
        assert sim.processed == 5


class TestDeterminism:
    def test_same_schedule_same_order(self):
        def run_once():
            sim = Simulator()
            seen = []
            for i in range(100):
                sim.schedule((i * 7) % 13 * 0.5, seen.append, i)
            sim.run()
            return seen

        assert run_once() == run_once()

    def test_many_events_heap_integrity(self, sim):
        seen = []
        for i in range(1000):
            sim.schedule(float((i * 37) % 101), seen.append, i)
        sim.run()
        assert len(seen) == 1000
        # time order was respected
        times = [(i * 37) % 101 for i in seen]
        assert times == sorted(times)

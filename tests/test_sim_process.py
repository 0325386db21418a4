"""Unit tests for generator-based processes, signals and interrupts."""

import pytest

from repro.sim.kernel import SimulationError
from repro.sim.process import Interrupt, Process, Signal, Timeout


def run_gen(sim, gen, name="p"):
    return Process(sim, gen, name=name)


class TestTimeout:
    def test_timeout_advances_time(self, sim):
        log = []

        def proc():
            yield Timeout(5.0)
            log.append(sim.now)

        run_gen(sim, proc())
        sim.run()
        assert log == [5.0]

    def test_sequential_timeouts(self, sim):
        log = []

        def proc():
            yield Timeout(1.0)
            log.append(sim.now)
            yield Timeout(2.0)
            log.append(sim.now)

        run_gen(sim, proc())
        sim.run()
        assert log == [1.0, 3.0]

    def test_zero_timeout(self, sim):
        log = []

        def proc():
            yield Timeout(0.0)
            log.append(sim.now)

        run_gen(sim, proc())
        sim.run()
        assert log == [0.0]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_first_step_runs_via_event(self, sim):
        log = []

        def proc():
            log.append("started")
            yield Timeout(1.0)

        run_gen(sim, proc())
        assert log == []  # construction does not execute model code
        sim.run()
        assert log == ["started"]


class TestLifecycle:
    def test_result_captured(self, sim):
        def proc():
            yield Timeout(1.0)
            return 42

        p = run_gen(sim, proc())
        sim.run()
        assert not p.alive
        assert p.result == 42

    def test_alive_until_done(self, sim):
        def proc():
            yield Timeout(5.0)

        p = run_gen(sim, proc())
        sim.run(until=2.0)
        assert p.alive
        sim.run()
        assert not p.alive

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)  # type: ignore[arg-type]

    def test_exception_recorded_and_reraised(self, sim):
        def proc():
            yield Timeout(1.0)
            raise ValueError("boom")

        p = run_gen(sim, proc())
        with pytest.raises(ValueError):
            sim.run()
        assert not p.alive
        assert isinstance(p.failure, ValueError)

    def test_unsupported_yield_target_fails(self, sim):
        def proc():
            yield 12345

        p = run_gen(sim, proc())
        with pytest.raises(SimulationError):
            sim.run()
        assert not p.alive


class TestJoin:
    def test_join_waits_for_completion(self, sim):
        log = []

        def worker():
            yield Timeout(3.0)
            return "done"

        def waiter(w):
            res = yield w
            log.append((sim.now, res))

        w = run_gen(sim, worker())
        run_gen(sim, waiter(w))
        sim.run()
        assert log == [(3.0, "done")]

    def test_join_on_dead_process_resumes_immediately(self, sim):
        log = []

        def worker():
            return "early"
            yield  # pragma: no cover

        def waiter(w):
            res = yield w
            log.append((sim.now, res))

        w = run_gen(sim, worker())
        sim.run(until=1.0)
        run_gen(sim, waiter(w))
        sim.run()
        assert log == [(1.0, "early")]


class TestInterrupt:
    def test_interrupt_raises_inside_generator(self, sim):
        log = []

        def proc():
            try:
                yield Timeout(100.0)
            except Interrupt as exc:
                log.append((sim.now, exc.cause))

        p = run_gen(sim, proc())
        sim.schedule(5.0, p.interrupt, "failure")
        sim.run()
        assert log == [(5.0, "failure")]

    def test_interrupt_cancels_pending_timeout(self, sim):
        log = []

        def proc():
            try:
                yield Timeout(100.0)
            except Interrupt:
                return
            log.append("should not happen")

        p = run_gen(sim, proc())
        sim.schedule(5.0, p.interrupt)
        sim.run()
        assert log == []
        assert not p.alive
        assert sim.now == 5.0  # the 100s timeout did not hold the clock

    def test_interrupt_dead_process_is_noop(self, sim):
        def proc():
            yield Timeout(1.0)

        p = run_gen(sim, proc())
        sim.run()
        p.interrupt()
        sim.run()

    def test_uncaught_interrupt_kills_cleanly(self, sim):
        def proc():
            yield Timeout(100.0)

        p = run_gen(sim, proc())
        sim.schedule(1.0, p.interrupt, "kill")
        sim.run()
        assert not p.alive
        assert p.failure is None  # a clean kill, not an error

    def test_process_can_continue_after_interrupt(self, sim):
        log = []

        def proc():
            try:
                yield Timeout(100.0)
            except Interrupt:
                pass
            yield Timeout(1.0)
            log.append(sim.now)

        p = run_gen(sim, proc())
        sim.schedule(5.0, p.interrupt)
        sim.run()
        assert log == [6.0]

    def test_interrupt_while_waiting_on_signal(self, sim):
        sig = Signal(sim)
        log = []

        def proc():
            try:
                yield sig
            except Interrupt:
                log.append("interrupted")

        p = run_gen(sim, proc())
        sim.schedule(2.0, p.interrupt)
        sim.run()
        assert log == ["interrupted"]
        # the signal no longer holds a reference to the dead process
        sig.trigger("x")
        sim.run()


class TestSignal:
    def test_wait_then_trigger(self, sim):
        log = []
        sig = Signal(sim)

        def proc():
            value = yield sig
            log.append((sim.now, value))

        run_gen(sim, proc())
        sim.schedule(4.0, sig.trigger, "go")
        sim.run()
        assert log == [(4.0, "go")]

    def test_triggered_signal_resumes_immediately(self, sim):
        log = []
        sig = Signal(sim)
        sig.trigger("pre")

        def proc():
            value = yield sig
            log.append(value)

        run_gen(sim, proc())
        sim.run()
        assert log == ["pre"]

    def test_multiple_waiters_all_resume(self, sim):
        log = []
        sig = Signal(sim)

        def proc(tag):
            yield sig
            log.append(tag)

        for tag in "abc":
            run_gen(sim, proc(tag))
        sim.schedule(1.0, sig.trigger)
        sim.run()
        assert log == ["a", "b", "c"]

    def test_double_trigger_is_noop(self, sim):
        sig = Signal(sim)
        sig.trigger(1)
        sig.trigger(2)
        assert sig.value == 1

    def test_reset_rearms(self, sim):
        log = []
        sig = Signal(sim)
        sig.trigger("first")
        sig.reset()
        assert not sig.triggered

        def proc():
            value = yield sig
            log.append(value)

        run_gen(sim, proc())
        sim.schedule(1.0, sig.trigger, "second")
        sim.run()
        assert log == ["second"]

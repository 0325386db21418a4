"""Unit tests for processes, signals and interrupts."""

import pickle

import pytest

from repro.sim.kernel import SimulationError
from repro.sim.process import Body, Interrupt, Process, Signal, Timeout


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

    def test_nan_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(float("nan"))

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

    def test_unsupported_yield_target_fails(self, sim):
        def proc():
            yield 12345

        p = run_gen(sim, proc())
        with pytest.raises(SimulationError):
            sim.run()
        assert not p.alive


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
        sim.run()  # a clean kill, not an error
        assert not p.alive

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


class Ticker(Body):
    """Logs the time, then waits one second; ``left`` more times."""

    __slots__ = ("sim", "left", "log")

    def __init__(self, sim, left):
        self.sim, self.left, self.log = sim, left, []

    def send(self, _value):
        self.log.append(self.sim.now)
        if not self.left:
            raise StopIteration
        self.left -= 1
        return Timeout(1.0)


class TestBody:
    def test_a_body_steps_until_it_stops(self, sim):
        body = Ticker(sim, 3)
        p = run_gen(sim, body)
        sim.run()
        assert body.log == [0.0, 1.0, 2.0, 3.0]
        assert not p.alive

    def test_an_interrupt_ends_a_body(self, sim):
        body = Ticker(sim, 10)
        p = run_gen(sim, body)
        sim.schedule(2.5, p.interrupt)
        sim.run()
        assert body.log == [0.0, 1.0, 2.0]
        assert not p.alive
        assert sim.now == 2.5

    def test_a_waiting_body_pickles_with_its_simulator(self, sim):
        body = Ticker(sim, 3)
        run_gen(sim, body)
        sim.run(until=1.5)
        twin = pickle.loads(pickle.dumps(body))
        twin.sim.run()
        sim.run()
        assert twin.log == body.log == [0.0, 1.0, 2.0, 3.0]

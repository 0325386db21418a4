"""Additional edge-case coverage for the simulation substrate."""

import pytest

from repro.sim.process import Interrupt, Process, Signal, Timeout
from repro.sim.random import RandomStreams
from repro.sim.timers import PeriodicTimer


class TestKernelEdges:
    def test_event_at_exactly_now(self, sim):
        seen = []
        sim.schedule(5.0, lambda: sim.schedule_at(sim.now, seen.append, 1))
        sim.run()
        assert seen == [1]

    def test_cancel_already_fired_event(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(ev)  # no-op, no error

    def test_callback_raising_propagates_and_clock_holds(self, sim):
        sim.schedule(3.0, lambda: (_ for _ in ()).throw(RuntimeError("x")))
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.now == 3.0
        # the simulator is usable again afterwards
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.run()
        assert seen == [1]

    def test_run_until_zero(self, sim):
        seen = []
        sim.schedule(0.0, seen.append, 1)
        sim.schedule(1.0, seen.append, 2)
        sim.run(until=0.0)
        assert seen == [1]
        assert sim.now == 0.0

    def test_many_cancellations_keep_heap_clean(self, sim):
        events = [sim.schedule(float(i), lambda: None) for i in range(100)]
        for ev in events[::2]:
            sim.cancel(ev)
        assert sim.pending == 50
        sim.run()
        assert sim.processed == 50


class TestProcessEdges:
    def test_generator_returning_immediately(self, sim):
        def proc():
            return 7
            yield  # pragma: no cover

        p = Process(sim, proc())
        sim.run()
        assert p.result == 7

    def test_chain_of_joins(self, sim):
        def leaf():
            yield Timeout(2.0)
            return "leaf"

        def middle(child):
            res = yield child
            return f"middle({res})"

        def root(m):
            res = yield m
            return f"root({res})"

        leaf_proc = Process(sim, leaf())
        m = Process(sim, middle(leaf_proc))
        r = Process(sim, root(m))
        sim.run()
        assert r.result == "root(middle(leaf))"

    def test_interrupt_wins_tie_with_timeout(self, sim):
        order = []

        def proc():
            try:
                yield Timeout(10.0)
                order.append("timeout")
            except Interrupt:
                order.append("interrupt")

        p = Process(sim, proc())
        # Scheduled before the process's first step, so the interrupt event
        # precedes the timeout's resume event in the same-instant ordering;
        # interrupt() also cancels the pending timeout.
        sim.schedule(10.0, p.interrupt)
        sim.run()
        assert order == ["interrupt"]

    def test_double_interrupt_single_delivery(self, sim):
        hits = []

        def proc():
            while True:
                try:
                    yield Timeout(100.0)
                except Interrupt:
                    hits.append(sim.now)

        p = Process(sim, proc())
        sim.schedule(1.0, p.interrupt)
        sim.schedule(1.0, p.interrupt)
        sim.run(until=50.0)
        # the second interrupt supersedes the first (single pending slot)
        assert hits == [1.0]

    def test_joiner_of_interrupted_process_resumes(self, sim):
        def victim():
            yield Timeout(100.0)

        def waiter(v):
            res = yield v
            return ("done", res, sim.now)

        v = Process(sim, victim())
        w = Process(sim, waiter(v))
        sim.schedule(5.0, v.interrupt)
        sim.run()
        assert w.result == ("done", None, 5.0)

    def test_signal_value_persists(self, sim):
        sig = Signal(sim, name="s")
        sig.trigger({"k": 1})
        assert sig.value == {"k": 1}
        assert sig.triggered


class TestRandomEdges:
    def test_uniform_degenerate(self):
        st = RandomStreams(0).stream("u")
        assert st.uniform(3.0, 3.0) == 3.0

    def test_large_seed_values(self):
        st = RandomStreams(2**63 - 1).stream("x")
        assert 0.0 <= st.random() < 1.0


class TestTimerEdges:
    def test_stop_then_start(self, sim):
        hits = []
        t = PeriodicTimer(sim, 10.0, lambda: hits.append(sim.now))
        t.start()
        sim.run(until=15.0)
        t.stop()
        sim.run(until=40.0)
        t.start()
        sim.run(until=59.0)
        assert hits == [10.0, 50.0]

    def test_action_stopping_timer(self, sim):
        hits = []
        t = PeriodicTimer(sim, 10.0, None)

        def action():
            hits.append(sim.now)
            if len(hits) == 2:
                t.stop()

        t.action = action
        t.start()
        sim.run(until=100.0)
        assert hits == [10.0, 20.0]

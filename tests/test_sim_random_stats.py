"""Unit tests for random streams, statistics collectors, timers, tracing."""

import math

import pytest

from repro.sim.random import RandomStreams
from repro.sim.stats import Counter, Series, StatsRegistry, Tally, TimeWeighted
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceLevel, Tracer


class TestRandomStreams:
    def test_same_name_same_object(self):
        rs = RandomStreams(1)
        assert rs.stream("a") is rs.stream("a")

    def test_different_names_independent(self):
        rs = RandomStreams(1)
        a = [rs.stream("a").random() for _ in range(5)]
        b = [rs.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_instances(self):
        xs = [RandomStreams(7).stream("x").random() for _ in range(3)]
        ys = [RandomStreams(7).stream("x").random() for _ in range(3)]
        # fresh registries replay identical sequences
        assert xs[0] == ys[0]

    def test_creation_order_does_not_matter(self):
        rs1 = RandomStreams(3)
        rs1.stream("a")
        v1 = rs1.stream("b").random()
        rs2 = RandomStreams(3)
        v2 = rs2.stream("b").random()  # "a" never created here
        assert v1 == v2

    def test_different_seeds_differ(self):
        assert RandomStreams(1).stream("x").random() != RandomStreams(2).stream("x").random()

    def test_exponential_mean(self):
        st = RandomStreams(0).stream("exp")
        n = 20000
        mean = sum(st.exponential(10.0) for _ in range(n)) / n
        assert mean == pytest.approx(10.0, rel=0.05)

    def test_exponential_positive(self):
        st = RandomStreams(0).stream("exp2")
        assert all(st.exponential(1.0) > 0 for _ in range(1000))

    def test_exponential_invalid_mean(self):
        with pytest.raises(ValueError):
            RandomStreams(0).stream("e").exponential(0.0)

    def test_uniform_bounds(self):
        st = RandomStreams(0).stream("u")
        assert all(2.0 <= st.uniform(2.0, 5.0) <= 5.0 for _ in range(1000))

    def test_randint_bounds(self):
        st = RandomStreams(0).stream("i")
        values = {st.randint(0, 3) for _ in range(200)}
        assert values == {0, 1, 2, 3}

    def test_choice_uniform(self):
        st = RandomStreams(0).stream("c")
        assert all(st.choice("xyz") in "xyz" for _ in range(100))

    def test_choice_weighted_respects_zero(self):
        st = RandomStreams(0).stream("w")
        picks = {st.choice(["a", "b"], weights=[1.0, 0.0]) for _ in range(100)}
        assert picks == {"a"}

    def test_choice_empty_raises(self):
        with pytest.raises(IndexError):
            RandomStreams(0).stream("c2").choice([])

    def test_choice_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            RandomStreams(0).stream("c3").choice([1, 2], weights=[1.0])

    def test_bernoulli_probability(self):
        st = RandomStreams(0).stream("b")
        hits = sum(st.bernoulli(0.3) for _ in range(20000))
        assert hits / 20000 == pytest.approx(0.3, abs=0.02)

    def test_bernoulli_invalid(self):
        with pytest.raises(ValueError):
            RandomStreams(0).stream("b2").bernoulli(1.5)


class TestCounter:
    def test_increment(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestTally:
    def test_mean_min_max(self):
        t = Tally("t")
        for v in (1.0, 2.0, 3.0):
            t.record(v)
        assert t.mean == pytest.approx(2.0)
        assert t.min == 1.0
        assert t.max == 3.0
        assert t.total == 6.0
        assert t.count == 3

    def test_variance_matches_numpy(self):
        """The n-1 estimators, against the stdlib's (once numpy's ddof=1)."""
        import statistics

        data = [1.5, 2.5, 9.0, -3.0, 0.25, 7.75]
        t = Tally("t")
        for v in data:
            t.record(v)
        assert t.variance == pytest.approx(statistics.variance(data))
        assert t.stdev == pytest.approx(statistics.stdev(data))

    def test_empty_tally(self):
        t = Tally("t")
        assert t.mean == 0.0
        assert t.variance == 0.0

    def test_single_value_variance_zero(self):
        t = Tally("t")
        t.record(5.0)
        assert t.variance == 0.0


class TestTimeWeighted:
    def test_time_average(self):
        now = [0.0]
        g = TimeWeighted("g", lambda: now[0], initial=0.0)
        now[0] = 10.0
        g.set(4.0)       # 0 for 10s
        now[0] = 20.0
        g.set(0.0)       # 4 for 10s
        now[0] = 40.0    # 0 for 20s
        assert g.time_average() == pytest.approx(1.0)

    def test_max_tracked(self):
        now = [0.0]
        g = TimeWeighted("g", lambda: now[0])
        g.set(7.0)
        g.set(2.0)
        assert g.max == 7.0


class TestSeries:
    def test_records_pairs(self):
        s = Series("s")
        s.record(1.0, 10)
        s.record(2.0, 20)
        assert list(s) == [(1.0, 10), (2.0, 20)]
        assert len(s) == 2

    def test_non_monotonic_rejected(self):
        s = Series("s")
        s.record(5.0, 1)
        with pytest.raises(ValueError):
            s.record(4.0, 2)


class TestStatsRegistry:
    def test_create_on_first_use(self):
        reg = StatsRegistry(lambda: 0.0)
        reg.counter("a").inc()
        assert reg.counter("a").value == 1
        assert "a" in reg

    def test_type_conflict_rejected(self):
        reg = StatsRegistry(lambda: 0.0)
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.tally("a")

    def test_snapshot_shapes(self):
        now = [0.0]
        reg = StatsRegistry(lambda: now[0])
        reg.counter("c").inc(3)
        reg.tally("t").record(2.0)
        reg.gauge("g").set(5.0)
        reg.series("s").record(1.0, 9)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["t"]["count"] == 1
        assert snap["g"]["value"] == 5.0
        assert snap["s"] == [(1.0, 9)]

    def test_names_sorted(self):
        reg = StatsRegistry(lambda: 0.0)
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]


class TestPeriodicTimer:
    def test_fires_periodically(self, sim):
        hits = []
        timer = PeriodicTimer(sim, 10.0, lambda: hits.append(sim.now))
        timer.start()
        sim.run(until=35.0)
        assert hits == [10.0, 20.0, 30.0]

    def test_infinite_period_never_fires(self, sim):
        hits = []
        timer = PeriodicTimer(sim, None, lambda: hits.append(sim.now))
        timer.start()
        sim.run(until=100.0)
        assert hits == []
        assert not timer.enabled

    def test_inf_float_treated_as_disabled(self, sim):
        timer = PeriodicTimer(sim, math.inf, lambda: None)
        timer.start()
        assert not timer.armed

    def test_reset_restarts_full_period(self, sim):
        hits = []
        timer = PeriodicTimer(sim, 10.0, lambda: hits.append(sim.now))
        timer.start()
        sim.schedule(5.0, timer.reset)  # the paper's forced-CLC reset
        sim.run(until=20.0)
        assert hits == [15.0]

    def test_stop_disarms(self, sim):
        hits = []
        timer = PeriodicTimer(sim, 10.0, lambda: hits.append(sim.now))
        timer.start()
        sim.schedule(25.0, timer.stop)
        sim.run(until=60.0)
        assert hits == [10.0, 20.0]

    def test_action_reset_prevents_double_schedule(self, sim):
        hits = []
        timer = PeriodicTimer(sim, 10.0, None)

        def action():
            hits.append(sim.now)
            timer.reset()

        timer.action = action
        timer.start()
        sim.run(until=35.0)
        assert hits == [10.0, 20.0, 30.0]

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_firings_counter(self, sim):
        timer = PeriodicTimer(sim, 5.0, lambda: None)
        timer.start()
        sim.run(until=20.0)
        assert timer.firings == 4


class TestTracer:
    def test_level_filtering(self):
        tr = Tracer(lambda: 1.0, TraceLevel.PROTOCOL)
        tr.protocol("a")
        tr.message("b")
        tr.debug("c")
        assert [r.kind for r in tr.records] == ["a"]

    def test_none_level_records_nothing(self):
        tr = Tracer(lambda: 0.0, TraceLevel.NONE)
        tr.protocol("a")
        assert len(tr) == 0

    def test_find_with_field_match(self):
        tr = Tracer(lambda: 0.0, TraceLevel.DEBUG)
        tr.protocol("evt", cluster=1)
        tr.protocol("evt", cluster=2)
        assert tr.count("evt") == 2
        assert tr.count("evt", cluster=2) == 1
        assert tr.first("evt", cluster=2)["cluster"] == 2

    def test_first_missing_returns_none(self):
        tr = Tracer(lambda: 0.0, TraceLevel.DEBUG)
        assert tr.first("nope") is None

    def test_timestamps_from_clock(self):
        now = [0.0]
        tr = Tracer(lambda: now[0], TraceLevel.DEBUG)
        now[0] = 3.5
        tr.debug("x")
        assert tr.records[0].time == 3.5

    def test_clear(self):
        tr = Tracer(lambda: 0.0, TraceLevel.DEBUG)
        tr.debug("x")
        tr.clear()
        assert len(tr) == 0

    def test_record_get_default(self):
        tr = Tracer(lambda: 0.0, TraceLevel.DEBUG)
        tr.debug("x", a=1)
        rec = tr.records[0]
        assert rec.get("a") == 1
        assert rec.get("b", "dflt") == "dflt"

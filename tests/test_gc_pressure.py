"""Memory-pressure-triggered garbage collection (§3.5)."""

import pytest

from repro.config.timers import TimersConfig
from tests.conftest import chatty_application, default_timers, small_topology
from repro.cluster.federation import Federation


def pressure_fed(threshold, gc_period=None, seed=3):
    timers = default_timers(clc_period=60.0, gc_period=gc_period)
    timers.gc_memory_threshold = threshold
    return Federation(
        small_topology(),
        chatty_application(total_time=1200.0),
        timers,
        seed=seed,
    )


class TestPressureGc:
    def test_threshold_triggers_collections(self):
        # node_state_size=100kB, 3 nodes: each CLC adds ~100kB x2 per node;
        # a 500kB budget saturates after a few CLCs
        fed = pressure_fed(threshold=500_000)
        results = fed.run()
        assert results.counter("gc/pressure_triggers") >= 1
        assert fed.protocol.garbage_collector.rounds_completed >= 1
        # storage stayed bounded
        assert results.stored_clcs(0) <= 6

    def test_no_threshold_no_pressure_triggers(self):
        fed = pressure_fed(threshold=None)
        results = fed.run()
        assert results.counter("gc/pressure_triggers") == 0
        assert fed.protocol.garbage_collector.rounds_completed == 0

    def test_huge_threshold_never_triggers(self):
        fed = pressure_fed(threshold=10**12)
        results = fed.run()
        assert results.counter("gc/pressure_triggers") == 0

    def test_combines_with_periodic(self):
        fed = pressure_fed(threshold=500_000, gc_period=300.0)
        results = fed.run()
        # both mechanisms contribute rounds
        assert fed.protocol.garbage_collector.rounds_started >= 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TimersConfig(gc_memory_threshold=0)

    def test_config_roundtrip(self):
        t = TimersConfig.from_dict({"gc_memory_threshold": 123456})
        assert t.gc_memory_threshold == 123456

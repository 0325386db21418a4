"""Tests for the timeline renderer and the §5.2 overhead experiment."""

import pytest

from repro.analysis.timeline import render_timeline
from repro.experiments.figure5 import figure5_scenario
from repro.experiments.runner import run_experiment
from repro.network.message import Message, MessageKind, NodeId


class TestTimeline:
    @pytest.fixture(scope="class")
    def outcome(self):
        return figure5_scenario()

    def test_header_has_cluster_columns(self, outcome):
        text = render_timeline(outcome.federation)
        header = text.splitlines()[0]
        assert "C0" in header and "C1" in header and "C2" in header

    def test_clc_boxes_with_ddvs(self, outcome):
        text = render_timeline(outcome.federation)
        assert "[CLC 2* (1,2,0)]" in text   # m1's forced CLC in cluster 1
        assert "[CLC 3* (0,4,3)]" in text   # m4's forced CLC in cluster 2
        assert "[CLC 2* (2,0,3)]" in text   # m5's forced CLC in cluster 0

    def test_unforced_clc_not_starred(self, outcome):
        text = render_timeline(outcome.federation)
        assert "[CLC 3 (1,3,0)]" in text    # the manual CLC in cluster 1

    def test_messages_and_deliveries_shown(self, outcome):
        text = render_timeline(outcome.federation)
        assert "->C1" in text
        assert "(ack 2)" in text and "(ack 3)" in text
        assert "forces CLC" in text

    def test_cascade_shown(self, outcome):
        text = render_timeline(outcome.federation)
        assert "ROLLBACK -> sn 4" in text
        assert "ROLLBACK -> sn 3" in text
        assert "ROLLBACK -> sn 2" in text
        assert "alert(c1, sn 4)" in text

    def test_time_window_filtering(self, outcome):
        text = render_timeline(outcome.federation, t0=0.0, t1=30.0)
        assert "ROLLBACK" not in text
        assert "[CLC 2* (1,2,0)]" in text

    def test_a_trace_is_a_function_of_the_run_not_of_the_process(self, outcome):
        """Message ids belong to the federation: what else the process sent
        in between -- another experiment, a message built by hand -- does
        not renumber the same run."""
        run_experiment("table1", overrides={"nodes": 4, "total_time": 1800.0})
        Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 1)
        again = figure5_scenario().federation
        assert again.tracer.count("send") > 0
        assert again.tracer.records == outcome.federation.tracer.records
        assert render_timeline(again) == render_timeline(outcome.federation)

    def test_rows_chronological(self, outcome):
        text = render_timeline(outcome.federation)
        times = [
            float(line.split()[0])
            for line in text.splitlines()[2:]
            if line.strip()
        ]
        assert times == sorted(times)


class TestOverheadExperiment:
    @pytest.fixture(scope="class")
    def exp(self):
        return run_experiment(
            "overhead",
            {"timers_min": [None, 30, 10], "nodes": 10, "total_time": 7200.0, "seed": 3},
        ).result

    def test_rows_per_timer(self, exp):
        assert [row[0] for row in exp.rows] == ["off", "30 min", "10 min"]

    def test_clc_counts_grow_with_tighter_timer(self, exp):
        clcs = [row[1] for row in exp.rows]
        assert clcs[0] <= clcs[1] <= clcs[2]

    def test_control_traffic_grows(self, exp):
        control = [row[3] for row in exp.rows]
        assert control[0] <= control[2]

    def test_piggyback_workload_bound(self, exp):
        piggy = [row[2] for row in exp.rows]
        assert max(piggy) - min(piggy) <= 0.3 * max(piggy) + 64

    def test_bytes_per_kind_counters(self):
        from tests.conftest import make_federation

        fed = make_federation(clc_period=100.0, total_time=400.0, chatty=True)
        results = fed.run()
        assert results.counter("net/bytes/kind/app") > 0
        assert results.counter("net/bytes/kind/replica") > 0
        assert results.counter("net/bytes/kind/clc_request") > 0
        # per-kind bytes partition the totals
        protocol_total = results.counter("net/bytes/protocol")
        per_kind = sum(
            v
            for name, v in results.stats.items()
            if isinstance(v, int)
            and name.startswith("net/bytes/kind/")
            and not name.endswith("/app")
            and not name.endswith("/replay")
        )
        assert per_kind == protocol_total

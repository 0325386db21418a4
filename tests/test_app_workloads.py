"""Tests for application processes and calibrated workloads."""

import pytest

from repro.app.process import scripted_sender_factory
from repro.app.workloads import (
    fig9_workload,
    pipeline_workload,
    table1_workload,
    table2_workload,
    table3_workload,
)
from repro.network.message import NodeId
from tests.conftest import Mailbox, make_federation


class TestMailbox:
    def test_records_messages(self):
        from repro.network.message import Message, MessageKind

        box = Mailbox()
        m = Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 1)
        box(m)
        assert len(box) == 1
        assert box.ids() == [m.msg_id]
        assert box.senders() == [NodeId(0, 0)]


class TestScriptedSender:
    def test_sends_at_scheduled_times(self):
        fed = make_federation(
            nodes=2, clc_period=None, total_time=100.0,
            app_factory=scripted_sender_factory({
                NodeId(0, 0): [(10.0, NodeId(0, 1), 50), (20.0, NodeId(0, 1), 50)],
            }),
        )
        fed.start()
        box = Mailbox()
        fed.node(NodeId(0, 1)).app_sink = box
        fed.sim.run(until=100.0)
        assert len(box) == 2

    def test_unscripted_nodes_idle(self):
        fed = make_federation(
            nodes=2, clc_period=None, total_time=100.0,
            app_factory=scripted_sender_factory({}),
        )
        results = fed.run()
        assert sum(results.messages.values()) == 0

    def test_restart_skips_past_sends(self):
        """Post-rollback restarts must not re-fire past instructions."""
        fed = make_federation(
            nodes=2, clc_period=None, total_time=200.0,
            app_factory=scripted_sender_factory({
                NodeId(0, 0): [(10.0, NodeId(0, 1), 50)],
            }),
        )
        fed.start()
        fed.sim.run(until=50.0)
        assert fed.fabric.app_message_count(0, 0) == 1
        fed.inject_failure(NodeId(0, 1))
        fed.run()
        # the send at t=10 was not replayed by the restarted script
        assert fed.fabric.app_message_count(0, 0) == 1


class TestComputeCommunicateLoop:
    def test_respects_probabilities(self):
        fed = make_federation(
            n_clusters=2, nodes=4, clc_period=None, total_time=4000.0,
            chatty=True, seed=9,
        )
        results = fed.run()
        intra = results.app_messages(0, 0)
        inter = results.app_messages(0, 1)
        # chatty_application: p_intra = 0.8, p_inter = 0.2
        assert intra > 2 * inter

    def test_stops_at_total_time(self):
        fed = make_federation(chatty=True, clc_period=None, total_time=300.0)
        fed.run()
        for cluster in fed.clusters:
            for node in cluster.nodes:
                assert node.app_process is not None
                assert not node.app_process.alive  # finished cleanly

    def test_never_messages_itself(self):
        fed = make_federation(
            n_clusters=1, nodes=2, clc_period=None, total_time=2000.0,
            chatty=True, seed=13,
        )
        fed.start()
        seen = []
        for node in fed.clusters[0].nodes:
            node.app_sink = lambda m, nid=node.id: seen.append((m.src, nid))
        fed.sim.run(until=2000.0)
        for src, dst in seen:
            assert src != dst


class TestWorkloadCalibration:
    def test_table1_expected_counts_full_scale(self):
        topology, application, timers = table1_workload()
        nodes = topology.nodes_in(0)
        assert application.expected_messages(0, 0, nodes) == pytest.approx(2920, rel=0.01)
        assert application.expected_messages(0, 1, nodes) == pytest.approx(145, rel=0.01)
        assert application.expected_messages(1, 1, nodes) == pytest.approx(2497, rel=0.01)
        assert application.expected_messages(1, 0, nodes) == pytest.approx(11, rel=0.01)

    def test_table1_scales_expectations(self):
        topology, application, timers = table1_workload(nodes=10, total_time=3600.0)
        # 10/100 nodes x 1/10 duration = 1/100 of the counts
        assert application.expected_messages(0, 0, 10) == pytest.approx(29.2, rel=0.01)

    def test_fig9_sets_reverse_flow(self):
        topology, application, timers = fig9_workload(messages_1_to_0=110)
        assert application.expected_messages(1, 0, 100) == pytest.approx(110, rel=0.01)
        assert timers.clc_period_for(0) == 1800.0
        assert timers.clc_period_for(1) == 1800.0

    def test_table2_defaults(self):
        topology, application, timers = table2_workload()
        assert timers.gc_period == 7200.0
        assert application.expected_messages(1, 0, 100) == pytest.approx(103, rel=0.01)

    def test_table3_three_clusters(self):
        topology, application, timers = table3_workload()
        assert topology.n_clusters == 3
        for src in range(3):
            for dst in range(3):
                if src != dst:
                    assert application.expected_messages(src, dst, 100) == pytest.approx(
                        100, rel=0.01
                    )

    def test_fig6_timer_configuration(self):
        topology, application, timers = table1_workload(
            clc_period_0=600.0, clc_period_1=None
        )
        assert timers.clc_period_for(0) == 600.0
        assert timers.clc_period_for(1) is None

    def test_pipeline_forward_only(self):
        topology, application, timers = pipeline_workload(n_stages=3)
        assert application.clusters[0].probability_to(1) > 0
        assert application.clusters[0].probability_to(2) == 0
        assert application.clusters[2].probability_to(0) == 0
        assert application.clusters[2].probability_to(1) == 0

    def test_pipeline_skip_links(self):
        topology, application, timers = pipeline_workload(
            n_stages=4, skip_probability=0.02
        )
        assert application.clusters[0].probability_to(2) == pytest.approx(0.02)
        assert application.clusters[1].probability_to(3) == pytest.approx(0.02)
        assert application.clusters[2].probability_to(4 - 1) > 0  # forward still there

    def test_pipeline_needs_two_stages(self):
        with pytest.raises(ValueError):
            pipeline_workload(n_stages=1)

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            table1_workload(nodes=0)

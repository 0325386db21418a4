"""Tests for the paper-§7 extensions and reproduction-specific features:
simultaneous faults, the heartbeat detector, incremental stable storage."""

import pytest

from repro.analysis.oracle import assert_consistent, attach_oracle
from repro.cluster.federation import Federation
from repro.network.message import NodeId
from repro.sim.trace import TraceLevel
from tests.conftest import (
    chatty_application,
    default_timers,
    make_federation,
    small_topology,
)


class TestSimultaneousFaults:
    def test_two_clusters_fail_concurrently(self):
        fed = make_federation(
            n_clusters=3, nodes=2, clc_period=80.0, total_time=1200.0,
            chatty=True, seed=5,
        )
        oracle = attach_oracle(fed)
        fed.start()
        fed.sim.run(until=500.0)
        # crash a node in cluster 0 and cluster 2 at the same instant
        fed.inject_failure(NodeId(0, 1))
        fed.inject_failure(NodeId(2, 1))
        fed.run()
        assert fed.results().counter("rollback/failures") == 2
        for cluster in fed.clusters:
            for node in cluster.nodes:
                assert node.up
        report = assert_consistent(fed, oracle)
        assert report.messages > 0 and report.erasures >= 2

    def test_concurrent_epochs_advance_independently(self):
        fed = make_federation(
            n_clusters=3, nodes=2, clc_period=80.0, total_time=1200.0,
            chatty=True, seed=6,
        )
        fed.start()
        fed.sim.run(until=500.0)
        fed.inject_failure(NodeId(0, 1))
        fed.inject_failure(NodeId(2, 0))
        fed.run()
        states = fed.protocol.cluster_states
        assert states[0].rollback_epoch >= 1
        assert states[2].rollback_epoch >= 1

    def test_injector_simultaneous_mode(self):
        topo = small_topology(n_clusters=3, nodes=2)
        topo.mtbf = 120.0
        fed = Federation(
            topo,
            chatty_application(n_clusters=3, total_time=1500.0),
            default_timers(n_clusters=3, clc_period=100.0),
            seed=14,
            trace_level=TraceLevel.PROTOCOL,
            allow_simultaneous_faults=True,
        )
        oracle = attach_oracle(fed)
        results = fed.run()
        assert results.counter("failures/injected") >= 2
        report = assert_consistent(fed, oracle)
        assert report.messages > 0 and report.erasures >= 2

    def test_injector_never_hits_recovering_cluster(self):
        """Victims are only drawn from healthy clusters."""
        topo = small_topology(n_clusters=2, nodes=3)
        topo.mtbf = 60.0
        fed = Federation(
            topo,
            chatty_application(total_time=1500.0),
            default_timers(clc_period=100.0),
            seed=15,
            trace_level=TraceLevel.PROTOCOL,
            allow_simultaneous_faults=True,
        )
        fed.run()
        # reconstruct per-cluster fault windows from the trace: no second
        # node_failed for a cluster before its recovery_complete
        open_failures: dict = {}
        for rec in fed.tracer.records:
            if rec.kind == "node_failed":
                c = rec["cluster"]
                assert not open_failures.get(c, False), (
                    "second fault hit a cluster still recovering"
                )
                open_failures[c] = True
            elif rec.kind == "recovery_complete":
                open_failures[rec["cluster"]] = False

    @pytest.mark.parametrize(
        "protocol", ["global-coordinated", "independent", "min-process", "clc-cic"]
    )
    def test_recovering_cluster_of_a_line_family_is_not_healthy(self, protocol):
        """A crash in cluster 0 rolls cluster 1 back with it; while cluster
        1 restores, all its nodes are up and only the protocol's per-cluster
        state says it is not a place to draw the next victim from."""
        fed = make_federation(
            clc_period=120.0, total_time=1000.0, chatty=True, seed=3,
            protocol=protocol,
        )
        fed.start()
        fed.sim.run(until=300.0)
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=300.0 + fed.timers.failure_detection_delay)
        assert all(node.up for node in fed.clusters[1].nodes)
        assert fed.protocol.cluster_states[1].recovering
        assert not fed.injector._cluster_healthy(1)
        fed.run()
        assert fed.injector._cluster_healthy(1)


class TestHeartbeatDetector:
    def heartbeat_fed(self, **kw):
        timers = default_timers(clc_period=100.0)
        timers.detector = "heartbeat"
        timers.heartbeat_period = 0.5
        timers.heartbeat_timeout = 1.6
        return Federation(
            small_topology(n_clusters=2, nodes=3),
            chatty_application(total_time=kw.pop("total_time", 600.0)),
            timers,
            seed=kw.pop("seed", 3),
            trace_level=TraceLevel.PROTOCOL,
            **kw,
        )

    def test_heartbeats_flow(self):
        fed = self.heartbeat_fed(total_time=30.0)
        results = fed.run()
        assert results.counter("net/protocol/heartbeat") > 0

    def test_crash_detected_within_timeout_plus_period(self):
        fed = self.heartbeat_fed()
        fed.start()
        fed.sim.run(until=100.0)
        fed.inject_failure(NodeId(0, 2))
        fed.sim.run(until=110.0)
        suspect = fed.tracer.first("heartbeat_suspect", cluster=0, node=2)
        assert suspect is not None
        assert suspect.time - 100.0 <= 1.6 + 2 * 0.5 + 0.1
        # and the rollback actually happened through that detection
        assert fed.tracer.first("rollback", cluster=0) is not None

    def test_leader_crash_detected_by_node_one(self):
        fed = self.heartbeat_fed()
        fed.start()
        fed.sim.run(until=100.0)
        fed.inject_failure(NodeId(1, 0))  # the cluster leader
        fed.sim.run(until=110.0)
        assert fed.tracer.first("heartbeat_suspect", cluster=1, node=0) is not None

    def test_no_false_positives_without_failures(self):
        fed = self.heartbeat_fed(total_time=300.0)
        results = fed.run()
        assert results.counter("failures/detected") == 0
        assert fed.detector.suspects_raised == 0

    def test_each_failure_reported_once(self):
        fed = self.heartbeat_fed()
        fed.start()
        fed.sim.run(until=100.0)
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=200.0)
        assert fed.detector.suspects_raised == 1
        assert fed.tracer.count("heartbeat_suspect") == 1

    def test_recovered_node_resumes_heartbeating(self):
        fed = self.heartbeat_fed()
        fed.start()
        fed.sim.run(until=100.0)
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=300.0)
        node = fed.node(NodeId(0, 1))
        assert node.up
        # after recovery the node is no longer on the reported list
        assert node.id not in fed.detector._reported

    def test_invalid_heartbeat_config_rejected(self):
        from repro.config.timers import TimersConfig

        with pytest.raises(ValueError):
            TimersConfig(detector="heartbeat", heartbeat_period=2.0,
                         heartbeat_timeout=1.0)
        with pytest.raises(ValueError):
            TimersConfig(detector="telepathy")


class TestIncrementalStorage:
    def test_delta_replicas_smaller(self):
        """Replica byte volume shrinks with incremental mode."""
        volumes = {}
        for label, options in (
            ("full", {}),
            ("incremental", {"incremental": True, "incremental_fraction": 0.1}),
        ):
            fed = make_federation(
                n_clusters=1, nodes=3, clc_period=50.0, total_time=500.0,
                protocol_options=options,
            )
            results = fed.run()
            volumes[label] = results.counter("net/bytes/protocol")
            # same number of replica messages either way
            volumes[label + "_msgs"] = results.counter("net/protocol/replica")
        assert volumes["full_msgs"] == volumes["incremental_msgs"]
        assert volumes["incremental"] < 0.5 * volumes["full"]

    def test_first_replica_is_full(self):
        fed = make_federation(
            n_clusters=1, nodes=2, clc_period=None, total_time=50.0,
            protocol_options={"incremental": True, "incremental_fraction": 0.1},
        )
        results = fed.run()  # only the initial CLC
        state_size = fed.timers.node_state_size
        # 2 nodes x 1 full replica each
        assert results.counter("net/bytes/protocol") >= 2 * state_size

    def test_rollback_restarts_delta_chain(self):
        fed = make_federation(
            n_clusters=1, nodes=2, clc_period=50.0, total_time=600.0,
            protocol_options={"incremental": True, "incremental_fraction": 0.1},
        )
        fed.start()
        fed.sim.run(until=200.0)
        for node in fed.clusters[0].nodes:
            assert node.agent.replicated_full
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=220.0)
        for node in fed.clusters[0].nodes:
            assert not node.agent.replicated_full
        fed.run()  # next CLCs re-establish the chain
        for node in fed.clusters[0].nodes:
            assert node.agent.replicated_full

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_federation(
                protocol_options={"incremental": True, "incremental_fraction": 0.0}
            )

    def test_ablation_experiment(self):
        from repro.experiments.runner import run_experiment

        exp = run_experiment(
            "ablation-incremental", {"nodes": 4, "total_time": 3600.0, "seed": 2}
        ).result
        full, inc = exp.rows
        assert inc[3] < full[3]       # fewer protocol bytes
        assert inc[2] == pytest.approx(full[2], abs=6)  # similar message counts

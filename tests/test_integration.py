"""End-to-end integration tests across protocols, seeds and failures."""

import pytest

from repro.analysis.oracle import assert_consistent, attach_oracle, check_invariants
from repro.analysis.rollback_cost import rollback_costs
from repro.cluster.federation import Federation
from repro.network.message import NodeId
from repro.sim.trace import TraceLevel
from tests.conftest import (
    chatty_application,
    default_timers,
    make_federation,
    small_topology,
)

ALL_PROTOCOLS = [
    "hc3i",
    "hc3i-transitive",
    "cic-always",
    "global-coordinated",
    "independent",
    "pessimistic-log",
]


class TestEveryProtocolRuns:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_failure_free_run_completes(self, protocol):
        fed = make_federation(
            protocol=protocol, clc_period=100.0, total_time=600.0, chatty=True
        )
        results = fed.run()
        assert results.duration == 600.0
        assert sum(results.messages.values()) > 0
        assert results.clc_counts(0)["total"] >= 1

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_run_with_failure_completes(self, protocol):
        fed = make_federation(
            protocol=protocol, clc_period=100.0, total_time=800.0, chatty=True
        )
        fed.start()
        fed.sim.run(until=350.0)
        fed.inject_failure(NodeId(0, 1))
        results = fed.run()
        assert results.duration == 800.0
        assert results.counter("rollback/failures") == 1
        # everyone is back up at the end
        for cluster in fed.clusters:
            for node in cluster.nodes:
                assert node.up

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_deterministic_given_seed(self, protocol):
        def run():
            fed = make_federation(
                protocol=protocol, clc_period=100.0, total_time=400.0,
                chatty=True, seed=21,
            )
            results = fed.run()
            return (
                dict(results.messages),
                [results.clc_counts(c)["total"] for c in range(2)],
                results.protocol_messages,
            )

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            fed = make_federation(
                clc_period=100.0, total_time=600.0, chatty=True, seed=seed
            )
            return dict(fed.run().messages)

        assert run(1) != run(2)


class TestConsistencyUnderFailures:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_single_failure_consistent(self, seed):
        fed = make_federation(
            n_clusters=3, nodes=2, clc_period=80.0, total_time=1200.0,
            chatty=True, seed=seed,
        )
        oracle = attach_oracle(fed)
        fed.start()
        fed.sim.run(until=500.0)
        victim = NodeId(seed % 3, seed % 2)
        fed.inject_failure(victim)
        fed.run()
        report = assert_consistent(fed, oracle)
        assert report.messages > 0 and report.erasures >= 1

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_sequential_failures_consistent(self, seed):
        fed = make_federation(
            n_clusters=2, nodes=3, clc_period=80.0, total_time=1500.0,
            chatty=True, seed=seed,
        )
        oracle = attach_oracle(fed)
        fed.start()
        fed.sim.run(until=400.0)
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=800.0)
        fed.inject_failure(NodeId(1, 2))
        fed.run()
        report = assert_consistent(fed, oracle)
        assert report.messages > 0 and report.erasures >= 2

    def test_mtbf_driven_failures_consistent(self):
        topo = small_topology(n_clusters=2, nodes=3)
        topo.mtbf = 250.0
        fed = Federation(
            topo,
            chatty_application(total_time=2000.0),
            default_timers(clc_period=100.0),
            seed=33,
            trace_level=TraceLevel.PROTOCOL,
        )
        oracle = attach_oracle(fed)
        results = fed.run()
        assert results.counter("failures/injected") >= 2
        report = assert_consistent(fed, oracle)
        assert report.messages > 0 and report.erasures >= 2

    def test_failure_during_gc_safe(self):
        fed = make_federation(
            nodes=2, clc_period=60.0, gc_period=150.0, total_time=1500.0,
            chatty=True, seed=8,
        )
        fed.start()
        # inject failures near GC instants
        fed.sim.schedule_at(150.5, fed.inject_failure, NodeId(0, 1))
        fed.sim.schedule_at(600.2, fed.inject_failure, NodeId(1, 0))
        fed.run()
        assert check_invariants(fed) == []

    def test_rollback_cost_report(self):
        fed = make_federation(
            clc_period=100.0, total_time=1000.0, chatty=True, seed=3,
        )
        fed.start()
        fed.sim.run(until=400.0)
        fed.inject_failure(NodeId(0, 0))
        fed.run()
        costs = rollback_costs(fed)
        assert costs.failures == 1
        assert costs.rollbacks >= 1
        assert costs.lost_work_node_seconds > 0
        assert len(costs.clusters_rolled_per_failure) == 1


class TestHeterogeneousTopology:
    def test_uneven_cluster_sizes(self):
        from repro.config.application import ApplicationConfig, ClusterAppSpec
        from repro.config.timers import TimersConfig
        from repro.network.topology import ClusterSpec, Topology

        topo = Topology(clusters=[ClusterSpec("big", 6), ClusterSpec("small", 1)])
        app = ApplicationConfig(
            clusters=[
                ClusterAppSpec(mean_compute=30.0, send_probabilities=[0.8, 0.2]),
                ClusterAppSpec(mean_compute=30.0, send_probabilities=[0.2, 0.8]),
            ],
            total_time=500.0,
        )
        fed = Federation(topo, app, TimersConfig(clc_periods=[100.0, 100.0]), seed=2)
        results = fed.run()
        assert results.clc_counts(0)["total"] >= 4
        assert results.clc_counts(1)["total"] >= 4

    def test_five_clusters(self):
        fed = make_federation(
            n_clusters=5, nodes=2, clc_period=150.0, total_time=800.0,
            chatty=True, seed=17,
        )
        results = fed.run()
        for c in range(5):
            assert results.clc_counts(c)["total"] >= 1
        assert check_invariants(fed) == []

    def test_single_cluster_degenerates_gracefully(self):
        """With one cluster HC3I is plain coordinated checkpointing."""
        fed = make_federation(
            n_clusters=1, nodes=4, clc_period=100.0, total_time=600.0,
        )
        results = fed.run()
        assert results.clc_counts(0)["forced"] == 0
        assert results.clc_counts(0)["unforced"] >= 4

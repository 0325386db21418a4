"""Stress integration: every feature enabled at once.

Eight clusters, chatty traffic, garbage collection, transitive DDV
tracking, degree-2 replication, incremental storage and MTBF-driven faults
-- the protocol must stay consistent and every cluster must end the run
healthy.

These are the suite's longest simulations, so the whole module is in the
slow lane (run ``-m "not slow"`` for the fast smoke pass).
"""

import pytest

pytestmark = pytest.mark.slow

from repro.analysis.oracle import assert_consistent, attach_oracle
from repro.cluster.federation import Federation
from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.timers import TimersConfig
from repro.network.topology import ClusterSpec, Topology
from repro.sim.trace import TraceLevel


def build_everything_on(seed: int, mtbf=500.0, n_clusters=8, nodes=3):
    topology = Topology(
        clusters=[ClusterSpec(f"c{i}", nodes) for i in range(n_clusters)],
        mtbf=mtbf,
    )
    p_inter = 0.15
    specs = []
    for c in range(n_clusters):
        probs = [p_inter / (n_clusters - 1)] * n_clusters
        probs[c] = 1.0 - p_inter
        specs.append(ClusterAppSpec(mean_compute=25.0, send_probabilities=probs))
    application = ApplicationConfig(clusters=specs, total_time=2500.0)
    timers = TimersConfig(
        clc_periods=[90.0] * n_clusters,
        gc_period=400.0,
        failure_detection_delay=0.5,
        checkpoint_restore_time=0.2,
        node_repair_time=1.0,
        node_state_size=50_000,
    )
    return Federation(
        topology,
        application,
        timers,
        protocol="hc3i",
        protocol_options={
            "mode": "ddv",
            "replication_degree": 2,
            "incremental": True,
            "incremental_fraction": 0.25,
        },
        seed=seed,
        trace_level=TraceLevel.PROTOCOL,
    )


@pytest.mark.parametrize("seed", [101, 202])
def test_everything_on_survives(seed):
    fed = build_everything_on(seed)
    oracle = attach_oracle(fed)
    results = fed.run()

    # the run saw real action
    assert results.counter("failures/injected") >= 1
    assert sum(results.messages.values()) > 500
    assert results.counter("gc/clcs_removed") > 0

    # everyone healthy at the end
    for cluster in fed.clusters:
        for node in cluster.nodes:
            assert node.up
    for cs in fed.protocol.cluster_states:
        assert not cs.recovering

    # and the global state is consistent
    report = assert_consistent(fed, oracle)
    assert report.messages > 0 and report.erasures >= 1


def test_everything_on_deterministic():
    def run():
        fed = build_everything_on(303)
        results = fed.run()
        return (
            dict(results.messages),
            results.counter("rollback/total"),
            results.counter("gc/clcs_removed"),
            [cs.sn for cs in fed.protocol.cluster_states],
        )

    assert run() == run()


def test_everything_on_detects_all():
    fed = build_everything_on(404, mtbf=600.0)
    results = fed.run()
    injected = results.counter("failures/injected")
    # every injected fault was reported by the oracle detector
    assert injected >= 1
    assert results.counter("failures/detected") == injected

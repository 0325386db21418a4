"""Tests for the request/response exchange workload (§2.1)."""

from repro.app.process import exchange_factory
from repro.analysis.oracle import assert_consistent, attach_oracle
from repro.network.message import NodeId
from tests.conftest import make_federation


def exchange_fed(clc_period=120.0, total_time=2000.0, seed=5, **kw):
    return make_federation(
        n_clusters=2,
        nodes=3,
        clc_period=clc_period,
        total_time=total_time,
        app_factory=exchange_factory(mean_compute=60.0),
        seed=seed,
        **kw,
    )


class TestExchangePattern:
    def test_every_request_gets_a_reply(self):
        fed = exchange_fed()
        results = fed.run()
        requests = results.app_messages(0, 1)
        replies = results.app_messages(1, 0)
        assert requests > 5
        # every delivered request produced one reply (allow in-flight tail)
        assert abs(replies - requests) <= 3

    def test_bidirectional_traffic_forces_both_sides(self):
        """The §5.3 regime: exchanges make SNs grow on both sides."""
        fed = exchange_fed()
        results = fed.run()
        assert results.clc_counts(0)["forced"] >= 1
        assert results.clc_counts(1)["forced"] >= 1

    def test_exchange_forces_more_than_oneway(self):
        """Replies re-arm the force on the requester side."""
        fed_ex = exchange_fed(seed=8)
        forced_exchange = sum(
            fed_ex.run().clc_counts(c)["forced"] for c in range(2)
        )
        fed_oneway = make_federation(
            n_clusters=2, nodes=3, clc_period=120.0, total_time=2000.0,
            app_factory=exchange_factory(mean_compute=60.0, request_probability=0.0),
            seed=8,
        )
        forced_oneway = sum(
            fed_oneway.run().clc_counts(c)["forced"] for c in range(2)
        )
        assert forced_exchange > forced_oneway == 0

    def test_responder_cluster_otherwise_idle(self):
        fed = exchange_fed()
        results = fed.run()
        # responders never message among themselves
        assert results.app_messages(1, 1) == 0

    def test_consistent_after_failure(self):
        fed = exchange_fed(total_time=3000.0, seed=6)
        oracle = attach_oracle(fed)
        fed.start()
        fed.sim.run(until=1200.0)
        fed.inject_failure(NodeId(1, 1))
        fed.run()
        report = assert_consistent(fed, oracle)
        assert report.messages > 0 and report.erasures >= 1

    def test_failed_responder_does_not_reply(self):
        fed = exchange_fed(total_time=3000.0, seed=7)
        fed.start()
        fed.sim.run(until=1000.0)
        replies_before = fed.fabric.app_message_count(1, 0)
        for node in fed.clusters[1].nodes:
            node.fail()  # silence the whole responder cluster
        fed.sim.run(until=1500.0)
        replies_after = fed.fabric.app_message_count(1, 0)
        assert replies_after == replies_before

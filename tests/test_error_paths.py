"""Error paths and less-travelled configurations."""

import json

import pytest

from repro.analysis.oracle import assert_consistent, attach_oracle, check_invariants
from repro.cluster.federation import Federation
from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.loader import load_scenario
from repro.config.timers import TimersConfig
from repro.network.message import NodeId
from repro.network.topology import ClusterSpec, LinkSpec, Topology
from tests.conftest import make_federation


class TestAsymmetricTopologies:
    def build(self):
        """Three clusters with deliberately different pairwise links."""
        fast = LinkSpec(latency=1e-4, bandwidth=1e9)
        slow = LinkSpec(latency=5e-2, bandwidth=1e6)
        return Topology(
            clusters=[ClusterSpec(f"c{i}", 2) for i in range(3)],
            inter_links={(0, 1): fast, (1, 2): slow},
            default_inter_link=LinkSpec(latency=1e-3, bandwidth=1e8),
        )

    def test_per_pair_links_used(self):
        topo = self.build()
        fast_delay = topo.delay(NodeId(0, 0), NodeId(1, 0), 1000)
        slow_delay = topo.delay(NodeId(1, 0), NodeId(2, 0), 1000)
        default_delay = topo.delay(NodeId(0, 0), NodeId(2, 0), 1000)
        assert fast_delay < default_delay < slow_delay

    def test_protocol_works_across_heterogeneous_links(self):
        topo = self.build()
        app = ApplicationConfig(
            clusters=[
                ClusterAppSpec(mean_compute=20.0, send_probabilities=[0.7, 0.2, 0.1]),
                ClusterAppSpec(mean_compute=20.0, send_probabilities=[0.1, 0.8, 0.1]),
                ClusterAppSpec(mean_compute=20.0, send_probabilities=[0.1, 0.1, 0.8]),
            ],
            total_time=600.0,
        )
        fed = Federation(topo, app, TimersConfig(clc_periods=[120.0] * 3), seed=3)
        results = fed.run()
        for c in range(3):
            assert results.clc_counts(c)["total"] >= 1
        assert check_invariants(fed) == []

    def test_slow_link_delays_alerts_not_correctness(self):
        """Rollback alerts over a 50 ms link still compute the same line."""
        topo = self.build()
        app = ApplicationConfig(
            clusters=[
                ClusterAppSpec(mean_compute=15.0, send_probabilities=[0.6, 0.2, 0.2]),
                ClusterAppSpec(mean_compute=15.0, send_probabilities=[0.2, 0.6, 0.2]),
                ClusterAppSpec(mean_compute=15.0, send_probabilities=[0.2, 0.2, 0.6]),
            ],
            total_time=1200.0,
        )
        fed = Federation(
            topo, app, TimersConfig(clc_periods=[100.0] * 3), seed=5
        )
        oracle = attach_oracle(fed)
        fed.start()
        fed.sim.run(until=600.0)
        fed.inject_failure(NodeId(1, 1))
        fed.run()
        report = assert_consistent(fed, oracle)
        assert report.messages > 0 and report.erasures >= 1


class TestLoaderErrors:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_scenario(bad, bad, bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "nope.json", tmp_path / "a", tmp_path / "b")

    def test_missing_required_keys(self, tmp_path):
        topo = tmp_path / "t.json"
        topo.write_text(json.dumps({"clusters": [{"name": "a", "nodes": 1}]}))
        app = tmp_path / "a.json"
        app.write_text(json.dumps({"clusters": []}))  # total_time missing
        timers = tmp_path / "ti.json"
        timers.write_text("{}")
        with pytest.raises((KeyError, ValueError)):
            load_scenario(topo, app, timers)


class TestFederationValidation:
    def test_cluster_count_mismatch(self):
        topo = Topology(clusters=[ClusterSpec("a", 1)])
        app = ApplicationConfig(
            clusters=[ClusterAppSpec(mean_compute=1.0)] * 2, total_time=10.0
        )
        with pytest.raises(ValueError):
            Federation(topo, app, TimersConfig())

    def test_run_until_beyond_total_time(self):
        fed = make_federation(total_time=100.0)
        results = fed.run(until=500.0)
        # the clock advances to the requested horizon; the app simply
        # finished at its total time
        assert results.duration == 500.0

    def test_double_start_is_idempotent(self):
        fed = make_federation(total_time=50.0)
        fed.start()
        fed.start()
        results = fed.run()
        assert results.clc_counts(0)["initial"] == 1

    def test_results_before_run(self):
        fed = make_federation(total_time=50.0)
        results = fed.results()  # legal: empty snapshot
        assert results.duration == 0.0
        assert results.events == 0


class TestMessageKindCoverage:
    def test_all_kinds_have_accounting_category(self):
        """Every message kind is either app-like or protocol traffic."""
        from repro.network.message import MessageKind

        for kind in MessageKind:
            assert isinstance(kind.is_app, bool)

    def test_unhandled_kind_raises_in_agent(self):
        fed = make_federation(total_time=50.0, protocol="global-coordinated")
        fed.start()
        fed.sim.run(until=5.0)
        from repro.network.message import Message, MessageKind

        agent = fed.node(NodeId(0, 0)).agent
        # only HC3I collects garbage; a GC message reaching another
        # family's agent is a programming error and must fail loudly
        msg = Message(
            src=NodeId(0, 1), dst=NodeId(0, 0),
            kind=MessageKind.GC_REQUEST, size=8,
        )
        with pytest.raises(ValueError):
            agent.on_receive(msg)

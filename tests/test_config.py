"""Unit tests for the three configuration files and the loader."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.loader import (
    ScenarioConfig,
    load_scenario,
    topology_from_dict,
    topology_to_dict,
)
from repro.config.timers import HOUR, MINUTE, TimersConfig
from repro.network.topology import two_cluster_topology


class TestClusterAppSpec:
    def test_valid(self):
        spec = ClusterAppSpec(mean_compute=10.0, send_probabilities=[0.5, 0.3])
        assert spec.probability_to(0) == 0.5
        assert spec.probability_to(1) == 0.3
        assert spec.probability_to(7) == 0.0

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            ClusterAppSpec(mean_compute=0.0)

    def test_probabilities_over_one_rejected(self):
        with pytest.raises(ValueError):
            ClusterAppSpec(mean_compute=1.0, send_probabilities=[0.8, 0.5])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            ClusterAppSpec(mean_compute=1.0, send_probabilities=[-0.1])

    def test_roundtrip(self):
        spec = ClusterAppSpec(mean_compute=5.0, send_probabilities=[0.2], message_size=99)
        assert ClusterAppSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("mean_compute", {"mean_compute": math.nan}),
            ("mean_compute", {"mean_compute": math.inf}),
            ("send_probabilities[1]", {"send_probabilities": [0.5, math.nan]}),
            ("message_size", {"message_size": math.nan}),
            ("message_size", {"message_size": math.inf}),
        ],
    )
    def test_non_finite_rejected_by_name(self, field, kwargs):
        """NaN compares False with everything, so `x <= 0` let it through."""
        with pytest.raises(ValueError, match=re.escape(field)):
            ClusterAppSpec(**{"mean_compute": 1.0, **kwargs})


class TestApplicationConfig:
    def test_expected_messages(self):
        app = ApplicationConfig(
            clusters=[ClusterAppSpec(mean_compute=100.0, send_probabilities=[0.5, 0.5])],
            total_time=1000.0,
        )
        # 10 rounds per node, 4 nodes, half to cluster 1
        assert app.expected_messages(0, 1, nodes=4) == pytest.approx(20.0)

    def test_needs_clusters(self):
        with pytest.raises(ValueError):
            ApplicationConfig(clusters=[], total_time=1.0)

    def test_needs_positive_time(self):
        with pytest.raises(ValueError):
            ApplicationConfig(
                clusters=[ClusterAppSpec(mean_compute=1.0)], total_time=0.0
            )

    @pytest.mark.parametrize("total_time", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, total_time):
        with pytest.raises(ValueError, match="total_time"):
            ApplicationConfig(
                clusters=[ClusterAppSpec(mean_compute=1.0)], total_time=total_time
            )

    def test_roundtrip(self):
        app = ApplicationConfig(
            clusters=[ClusterAppSpec(mean_compute=3.0, send_probabilities=[0.1, 0.2])],
            total_time=500.0,
        )
        assert ApplicationConfig.from_dict(app.to_dict()).total_time == 500.0


class TestTimersConfig:
    def test_defaults(self):
        t = TimersConfig()
        assert t.clc_period_for(0) is None
        assert t.gc_period is None

    def test_periods_normalized(self):
        t = TimersConfig(clc_periods=[60.0, "inf", None, float("inf")])
        assert t.clc_period_for(0) == 60.0
        assert t.clc_period_for(1) is None
        assert t.clc_period_for(2) is None
        assert t.clc_period_for(3) is None
        assert t.clc_period_for(99) is None  # out of range = infinite

    def test_string_number_accepted(self):
        assert TimersConfig(clc_periods=["30"]).clc_period_for(0) == 30.0

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            TimersConfig(clc_periods=[-5.0])

    def test_invalid_delays_rejected(self):
        with pytest.raises(ValueError):
            TimersConfig(failure_detection_delay=-1.0)
        with pytest.raises(ValueError):
            TimersConfig(node_state_size=0)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("clc_periods[1]", {"clc_periods": [60.0, math.nan]}),
            ("clc_periods[0]", {"clc_periods": ["nan"]}),
            ("clc_periods[0]", {"clc_periods": [-math.inf]}),
            ("gc_period", {"gc_period": math.nan}),
            ("failure_detection_delay", {"failure_detection_delay": math.nan}),
            ("checkpoint_restore_time", {"checkpoint_restore_time": math.nan}),
            ("node_repair_time", {"node_repair_time": math.inf}),
            ("node_state_size", {"node_state_size": math.nan}),
            ("gc_memory_threshold", {"gc_memory_threshold": math.nan}),
            ("heartbeat_period", {"heartbeat_period": math.nan}),
            ("heartbeat_timeout", {"heartbeat_timeout": math.nan}),
        ],
    )
    def test_non_finite_rejected_by_name(self, field, kwargs):
        with pytest.raises(ValueError, match=re.escape(field)):
            TimersConfig(**kwargs)

    def test_roundtrip(self):
        t = TimersConfig(clc_periods=[30 * MINUTE, None], gc_period=2 * HOUR)
        t2 = TimersConfig.from_dict(t.to_dict())
        assert t2.clc_period_for(0) == 30 * MINUTE
        assert t2.clc_period_for(1) is None
        assert t2.gc_period == 2 * HOUR

    def test_units(self):
        assert MINUTE == 60.0
        assert HOUR == 3600.0


class TestTopologySerialization:
    def test_roundtrip(self):
        topo = two_cluster_topology(nodes=7, mtbf=1234.0)
        again = topology_from_dict(topology_to_dict(topo))
        assert again.n_clusters == 2
        assert again.nodes_in(0) == 7
        assert again.mtbf == 1234.0
        assert again.link_between(0, 1).latency == topo.link_between(0, 1).latency

    def test_from_dict_defaults(self):
        topo = topology_from_dict({"clusters": [{"name": "a", "nodes": 2}]})
        assert topo.clusters[0].link.latency == pytest.approx(10e-6)


class TestScenario:
    def test_mismatched_cluster_counts_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                topology=two_cluster_topology(nodes=2),
                application=ApplicationConfig(
                    clusters=[ClusterAppSpec(mean_compute=1.0)], total_time=1.0
                ),
                timers=TimersConfig(),
            )

    def test_three_file_loading(self, tmp_path):
        topo_file = tmp_path / "topo.json"
        app_file = tmp_path / "app.json"
        timers_file = tmp_path / "timers.json"
        topo_file.write_text(json.dumps(topology_to_dict(two_cluster_topology(nodes=2))))
        app_file.write_text(json.dumps({
            "clusters": [
                {"mean_compute": 10.0, "send_probabilities": [0.9, 0.1]},
                {"mean_compute": 10.0, "send_probabilities": [0.1, 0.9]},
            ],
            "total_time": 100.0,
        }))
        timers_file.write_text(json.dumps({"clc_periods": [60, "inf"]}))
        scenario = load_scenario(topo_file, app_file, timers_file, seed=5)
        assert scenario.topology.n_clusters == 2
        assert scenario.application.total_time == 100.0
        assert scenario.timers.clc_period_for(1) is None
        assert scenario.seed == 5

    def test_single_file_loading(self, tmp_path):
        scenario = ScenarioConfig(
            topology=two_cluster_topology(nodes=2),
            application=ApplicationConfig(
                clusters=[
                    ClusterAppSpec(mean_compute=10.0),
                    ClusterAppSpec(mean_compute=10.0),
                ],
                total_time=100.0,
            ),
            timers=TimersConfig(clc_periods=[60.0, 60.0]),
            protocol="hc3i-transitive",
            seed=3,
        )
        path = tmp_path / "scenario.json"
        scenario.save(path)
        loaded = load_scenario(path, path, path)
        assert loaded.protocol == "hc3i-transitive"
        assert loaded.seed == 3
        assert loaded.topology.nodes_in(1) == 2

    def test_scenario_runs(self, tmp_path):
        """A loaded scenario can actually be simulated end to end."""
        from repro.cluster.federation import Federation

        scenario = ScenarioConfig(
            topology=two_cluster_topology(nodes=2),
            application=ApplicationConfig(
                clusters=[
                    ClusterAppSpec(mean_compute=20.0, send_probabilities=[0.8, 0.2]),
                    ClusterAppSpec(mean_compute=20.0, send_probabilities=[0.2, 0.8]),
                ],
                total_time=300.0,
            ),
            timers=TimersConfig(clc_periods=[100.0, 100.0]),
        )
        fed = Federation(
            scenario.topology, scenario.application, scenario.timers,
            protocol=scenario.protocol, seed=scenario.seed,
        )
        results = fed.run()
        assert results.duration == 300.0
        assert results.clc_counts(0)["total"] >= 1


def test_hc3i_sim_refuses_a_nan_in_a_scenario_file(tmp_path):
    """Python's json reads `NaN`; the run must stop at the file, not in the
    heap, and without a traceback."""
    repo = Path(__file__).resolve().parents[1]
    shipped = repo / "examples" / "scenario_files"
    app = json.loads((shipped / "application.json").read_text())
    app["clusters"][0]["mean_compute"] = math.nan
    (tmp_path / "application.json").write_text(json.dumps(app))
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.cli",
            "--topology", str(shipped / "topology.json"),
            "--application", str(tmp_path / "application.json"),
            "--timers", str(shipped / "timers.json"),
        ],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode != 0
    assert "Traceback" not in result.stderr
    assert "mean_compute" in result.stderr

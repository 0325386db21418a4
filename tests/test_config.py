"""Unit tests for the three configuration files and the loader."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.federation import Federation
from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.loader import ScenarioConfig, load_scenario, topology_from_dict
from repro.config.timers import HOUR, MINUTE, TimersConfig
from repro.core.hc3i import Hc3iOptions
from repro.core.protocol import protocol_names
from repro.network.message import NodeId
from repro.network.topology import LinkSpec, Topology, two_cluster_topology
from tests.conftest import make_federation

REPO = Path(__file__).resolve().parents[1]
SHIPPED = REPO / "examples" / "scenario_files"
TWO_CLUSTERS = {"clusters": [{"name": "c0", "nodes": 2}, {"name": "c1", "nodes": 2}]}
TWO_APPS = {"clusters": [{"mean_compute": 10.0}, {"mean_compute": 10.0}], "total_time": 50.0}


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
        text = '{"mean_compute": 5.0, "send_probabilities": [0.2], "message_size": 99}'
        spec = ClusterAppSpec(mean_compute=5.0, send_probabilities=[0.2], message_size=99)
        assert ClusterAppSpec.from_dict(json.loads(text)) == spec

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
        text = '{"clusters": [{"mean_compute": 3.0, "send_probabilities": [0.1, 0.2]}], ' \
            '"total_time": 500.0}'
        app = ApplicationConfig.from_dict(json.loads(text))
        assert app.total_time == 500.0
        assert app.clusters == [ClusterAppSpec(mean_compute=3.0, send_probabilities=[0.1, 0.2])]


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
        ],
    )
    def test_non_finite_rejected_by_name(self, field, kwargs):
        with pytest.raises(ValueError, match=re.escape(field)):
            TimersConfig(**kwargs)

    def test_roundtrip(self):
        t2 = TimersConfig.from_dict(json.loads('{"clc_periods": [1800, "inf"], "gc_period": 7200}'))
        assert t2.clc_period_for(0) == 30 * MINUTE
        assert t2.clc_period_for(1) is None
        assert t2.gc_period == 2 * HOUR

    def test_units(self):
        assert MINUTE == 60.0
        assert HOUR == 3600.0


class TestTopologySerialization:
    def test_roundtrip(self):
        again = topology_from_dict(json.loads("""{
            "clusters": [{"name": "cluster0", "nodes": 7}, {"name": "cluster1", "nodes": 7}],
            "inter_links": [{"between": [0, 1], "latency": 0.00015, "bandwidth": 1e8}],
            "mtbf": 1234.0
        }"""))
        assert again == two_cluster_topology(nodes=7, mtbf=1234.0)

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
        topo_file.write_text((SHIPPED / "topology.json").read_text())
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
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "topology": {"clusters": [{"name": "c0", "nodes": 2}, {"name": "c1", "nodes": 2}]},
            "application": {
                "clusters": [{"mean_compute": 10.0}, {"mean_compute": 10.0}],
                "total_time": 100.0,
            },
            "timers": {"clc_periods": [60.0, 60.0]},
            "protocol": "hc3i-transitive",
            "seed": 3,
        }))
        loaded = load_scenario(path, path, path)
        assert loaded.protocol == "hc3i-transitive"
        assert loaded.seed == 3
        assert loaded.topology.nodes_in(1) == 2

    def test_scenario_runs(self, tmp_path):
        """A loaded scenario can actually be simulated end to end."""
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


def _hc3i_sim_on_a_copy(tmp_path, name, edit):
    """Run ``hc3i-sim`` on a copy of ``examples/scenario_files`` in which
    ``edit`` has changed the JSON of ``<name>.json``."""
    args = [sys.executable, "-m", "repro.cli"]
    for part in ("topology", "application", "timers"):
        data = json.loads((SHIPPED / f"{part}.json").read_text())
        if part == name:
            edit(data)
        (tmp_path / f"{part}.json").write_text(json.dumps(data))
        args += [f"--{part}", str(tmp_path / f"{part}.json")]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(args, capture_output=True, text=True, env=env, timeout=120)


def test_hc3i_sim_refuses_a_nan_in_a_scenario_file(tmp_path):
    """Python's json reads `NaN`; the run must stop at the file, not in the
    heap, and without a traceback."""

    def edit(app):
        app["clusters"][0]["mean_compute"] = math.nan

    result = _hc3i_sim_on_a_copy(tmp_path, "application", edit)
    assert result.returncode != 0
    assert "Traceback" not in result.stderr
    assert "mean_compute" in result.stderr


@pytest.mark.parametrize(
    "field, edit",
    [
        ("latency", lambda t: t["inter_links"][0].update(latency=math.nan)),
        ("bandwidth", lambda t: t["clusters"][0].update(bandwidth=math.nan)),
        ("mtbf", lambda t: t.update(mtbf=math.nan)),
    ],
)
def test_hc3i_sim_refuses_a_nan_in_topology(tmp_path, field, edit):
    """Unchecked, a NaN delay dies in the kernel heap and a NaN mtbf
    silently turns failures off."""
    result = _hc3i_sim_on_a_copy(tmp_path, "topology", edit)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"hc3i-sim: {field} must be" in result.stderr


def test_hc3i_sim_refuses_a_misspelt_key(tmp_path):
    """A misspelt `gc_period` used to run to the end with GC off."""
    result = _hc3i_sim_on_a_copy(
        tmp_path, "timers", lambda t: t.update(gc_perid=t.pop("gc_period"))
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "unknown key 'gc_perid'" in result.stderr


def test_hc3i_sim_refuses_an_unknown_protocol_option(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "topology": TWO_CLUSTERS,
        "application": TWO_APPS,
        "timers": {},
        "protocol_options": {"gc_mode": "distributed"},
    }))
    from repro.cli import main

    with pytest.raises(SystemExit, match="hc3i-sim: hc3i protocol_options: unknown key 'gc_mode'"):
        main(["--scenario", str(path)])



class TestTopologyValues:
    @pytest.mark.parametrize(
        "field, build",
        [
            ("latency", lambda: LinkSpec(latency=math.nan, bandwidth=1e8)),
            ("latency", lambda: LinkSpec(latency=math.inf, bandwidth=1e8)),
            ("bandwidth", lambda: LinkSpec(latency=0.0, bandwidth=math.nan)),
            ("bandwidth", lambda: LinkSpec(latency=0.0, bandwidth=math.inf)),
            ("mtbf", lambda: two_cluster_topology(nodes=2, mtbf=math.nan)),
        ],
    )
    def test_non_finite_rejected_by_name(self, field, build):
        with pytest.raises(ValueError, match=field):
            build()

    def test_infinite_mtbf_means_no_failures(self):
        topo = Topology(clusters=two_cluster_topology(nodes=2).clusters, mtbf=math.inf)
        assert not topo.failures_enabled


class TestUnknownKeysRefused:
    """Every reader refuses a key it does not know, names it, and lists the
    keys it accepts: a misspelt key must not silently keep its default."""

    @pytest.mark.parametrize(
        "read, data, key",
        [
            (topology_from_dict, {**TWO_CLUSTERS, "mtbff": 5.0}, "mtbff"),
            (topology_from_dict, {"clusters": [{"name": "c0", "nodes": 2, "latncy": 1e-5}]},
             "latncy"),
            (topology_from_dict,
             {**TWO_CLUSTERS, "inter_links": [{"between": [0, 1], "latency": 0, "bandwith": 1}]},
             "bandwith"),
            (topology_from_dict,
             {**TWO_CLUSTERS, "default_inter_link": {"latency": 0, "bandwidth": 1, "jitter": 0}},
             "jitter"),
            (ApplicationConfig.from_dict, {**TWO_APPS, "total_tim": 10.0}, "total_tim"),
            (ClusterAppSpec.from_dict, {"mean_compute": 5, "send_probabilitys": [0, 0.5]},
             "send_probabilitys"),
            (TimersConfig.from_dict, {"gc_perid": 5}, "gc_perid"),
            (ScenarioConfig.from_dict,
             {"topology": TWO_CLUSTERS, "application": TWO_APPS, "timers": {}, "sed": 1}, "sed"),
            (Hc3iOptions.from_dict, {"replay_enabeld": False}, "replay_enabeld"),
        ],
        ids=[
            "topology", "topology-cluster", "topology-inter-link", "topology-default-link",
            "application", "application-cluster", "timers", "scenario", "hc3i-options",
        ],
    )
    def test_reader_names_the_key(self, read, data, key):
        with pytest.raises(ValueError, match=rf"unknown key '{key}' \(accepted: "):
            read(data)

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_every_family_refuses_an_unknown_option(self, protocol):
        with pytest.raises(ValueError, match=f"{protocol} protocol_options: unknown key 'bogus'"):
            make_federation(protocol=protocol, protocol_options={"bogus": 1})

    def test_clc_cic_accepts_only_predicate(self):
        make_federation(protocol="clc-cic", protocol_options={"predicate": "bcs"})
        with pytest.raises(ValueError, match=r"\(accepted: predicate\)"):
            make_federation(protocol="clc-cic", protocol_options={"mode": "ddv"})


class TestRetiredKnobsRefused:
    """The heartbeat detector, the token-ring GC, the simultaneous-fault mode
    and the one-value knobs are gone: naming one fails, by name."""

    @pytest.mark.parametrize(
        "key", ["detector", "heartbeat_period", "heartbeat_timeout", "gc_initiator_cluster"]
    )
    def test_timers_field(self, key):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            TimersConfig.from_dict({key: 1})

    @pytest.mark.parametrize(
        "protocol, key",
        [("hc3i", "gc_mode"), ("hc3i", "control_size"), ("pessimistic-log", "replay_cost")],
    )
    def test_protocol_option(self, protocol, key):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            make_federation(protocol=protocol, protocol_options={key: 1})

    def test_simultaneous_fault_keywords(self):
        from repro.cluster.failures import FailureInjector

        fed = make_federation()
        with pytest.raises(TypeError, match="allow_simultaneous_faults"):
            Federation(fed.topology, fed.application, fed.timers, allow_simultaneous_faults=True)
        with pytest.raises(TypeError, match="allow_simultaneous"):
            FailureInjector(fed, 100.0, allow_simultaneous=True)

    def test_detect_keyword(self):
        from repro.cluster.failures import FailureInjector

        fed = make_federation()
        with pytest.raises(TypeError, match="detect"):
            fed.inject_failure(NodeId(0, 1), detect=False)
        with pytest.raises(TypeError, match="detect"):
            FailureInjector(fed, 100.0).inject(NodeId(0, 1), detect=False)

    @pytest.mark.parametrize("experiment", ["table2", "table3"])
    def test_gc_mode_grid_kwarg(self, experiment):
        from repro.cli import main

        with pytest.raises(SystemExit, match="does not accept gc_mode"):
            main(["sweep", experiment, "--set", "gc_mode=distributed", "--no-cache"])

"""The study table: every row is a well-formed registry experiment."""

import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.experiments.golden import golden_overrides
from repro.experiments.studies import METRICS, STUDIES, WORKLOADS

from conftest import REPO_ROOT


@pytest.mark.parametrize("study", STUDIES, ids=lambda study: study.name)
def test_row_builds_a_self_contained_json_grid(study):
    experiment = registry.get(study.name)
    assert (experiment.title, experiment.scaled) == (study.title, study.scaled)
    grid = experiment.build_grid(golden_overrides(experiment))
    assert grid
    for params in grid:
        assert params == json.loads(json.dumps(params, sort_keys=True))
        assert params["workload"] in WORKLOADS
        assert set(params["metrics"]) <= set(METRICS)
        assert {metric for _header, metric, _digits in study.columns} <= set(
            params["metrics"]
        )


def test_row_grid_rejects_kwargs_it_does_not_declare():
    with pytest.raises(TypeError):
        registry.get("baselines").grid(bogus=1)


def test_more_failure_times_than_victims_is_an_error():
    with pytest.raises(ValueError, match="2 victims"):
        registry.get("baselines").build_grid({"failure_times": [1.0, 2.0, 3.0]})


def test_a_row_without_the_kwarg_keeps_its_failure_schedule_constant():
    experiment = registry.get("ablation-incremental")
    assert "failure_times" not in experiment.grid_parameters()
    with pytest.raises(ValueError, match="does not accept failure_times"):
        registry.resolve_overrides(experiment, "tiny", sets={"failure_times": [60.0]})
    (at, _victim), = experiment.build_grid({"total_time": 1000.0})[0]["failures"]
    assert at == 600.0


def test_tournament_point_records_exactly_its_metrics():
    experiment = registry.get("protocol-tournament")
    params = experiment.build_grid(golden_overrides(experiment))[0]
    assert set(experiment.point(params)) == {
        "checkpoints",
        "failures",
        "mean_clusters",
        "replays",
        "lost_work",
        "log_bytes",
    }


def test_sweep_rejects_a_set_key_the_row_does_not_take():
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "baselines", "--no-cache", "--set", "bogus=1"])
    message = str(exit_info.value)
    assert "bogus" in message
    for accepted in ("failure_times", "nodes", "seed", "total_time"):
        assert accepted in message


def test_importing_the_cli_loads_no_experiment_module():
    """``repro cache``/``serve`` start-up must not pay for the registry."""
    script = (
        "import sys, json; import repro.cli; "
        "before = set(sys.modules); "
        "from repro.experiments import registry; "
        "names = registry.names(); "
        "artifact = {e.point.__module__ for e in registry.all_experiments()}; "
        "print(json.dumps([sorted((artifact | {'numpy'}) & before), names]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded_before_first_use, names = json.loads(out)
    assert loaded_before_first_use == []
    assert names == registry.names()

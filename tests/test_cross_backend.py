"""Cross-backend equivalence: every experiment, every way to run it, one answer.

The engine's load-bearing invariant is that a grid point's params dict
(seed included) fully determines its simulation, so *where* it runs can
never change the result.  This suite enforces that end to end: all
registered experiments under the ``inprocess`` backend name (the inline
path the benchmark ladder asks for) and over a ``--jobs 2`` process pool
must produce sweep results byte-identical to a ``--jobs 1`` serial run --
every column, ``scaling``'s included.

The serial baselines are computed once per experiment (module-scoped
fixture).  The ``inprocess`` matrix is cheap and runs in the fast lane;
the pool lane over all experiments is ``slow``-marked, with a small
unmarked smoke subset so the fast lane still crosses the pool.
"""

from __future__ import annotations

import pytest

from repro.experiments import registry
from repro.experiments.golden import golden_overrides
from repro.experiments.runner import run_experiment

ALL_EXPERIMENTS = registry.names()

#: unmarked smoke subset: the pool crossed in the fast lane
SMOKE_EXPERIMENTS = ("table1", "fig6-fig7", "protocol-tournament", "ablation-components")


@pytest.fixture(scope="module")
def serial_baseline():
    """Lazily computed ``--jobs 1`` reports, shared across the whole matrix."""
    reports: dict = {}

    def get(name: str):
        if name not in reports:
            experiment = registry.get(name)
            reports[name] = run_experiment(
                experiment, overrides=golden_overrides(experiment), jobs=1
            )
        return reports[name]

    return get


def run_on_backend(name: str, backend_kind: str):
    experiment = registry.get(name)
    overrides = golden_overrides(experiment)
    if backend_kind == "local":
        return run_experiment(experiment, overrides=overrides, jobs=2)
    return run_experiment(experiment, overrides=overrides, backend=backend_kind)


def assert_equivalent(report, serial, name: str, backend_kind: str) -> None:
    detail = f"{name} over {backend_kind} diverged from --jobs 1"
    assert report.result.render() == serial.result.render(), detail
    assert report.result.rows == serial.result.rows, detail
    assert report.result.series == serial.result.series, detail
    assert report.result.xs == serial.result.xs, detail
    assert report.points == serial.points
    assert report.executed == serial.points  # nothing was cached away


class TestEquivalenceFastLane:
    """Cheap coverage that still crosses every experiment and both backends."""

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_inprocess_matches_serial(self, name, serial_baseline):
        report = run_on_backend(name, "inprocess")
        assert_equivalent(report, serial_baseline(name), name, "inprocess")

    @pytest.mark.parametrize("backend_kind", ["local"])
    @pytest.mark.parametrize("name", SMOKE_EXPERIMENTS)
    def test_smoke_subset_matches_serial(self, name, backend_kind, serial_baseline):
        report = run_on_backend(name, backend_kind)
        assert_equivalent(report, serial_baseline(name), name, backend_kind)


@pytest.mark.slow
class TestEquivalenceFullMatrix:
    """The full registry over the process pool (slow lane)."""

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_local_pool_matches_serial(self, name, serial_baseline):
        report = run_on_backend(name, "local")
        assert_equivalent(report, serial_baseline(name), name, "local")

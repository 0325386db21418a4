"""Cross-backend equivalence: every experiment, every backend, one answer.

The engine's load-bearing invariant is that a grid point's params dict
(seed included) fully determines its simulation, so *where* it runs can
never change the result.  This suite enforces that end to end: all
registered experiments x {InProcess, LocalProcess, SSH-stub, SLURM-stub,
k8s-stub} must produce sweep results byte-identical to a ``--jobs 1``
serial run.

The serial baselines are computed once per experiment (module-scoped
fixture).  The in-process matrix is cheap and runs in the fast lane; the
subprocess-heavy lanes (LocalProcess pools, SSH/SLURM/k8s stubs over all
experiments) are ``slow``-marked, with a small unmarked smoke subset so
the fast lane still crosses every backend.
"""

from __future__ import annotations

import pytest

from conftest import (
    InMemoryK8sTransport,
    InMemorySlurmTransport,
    loopback_spec,
    make_k8s_backend,
    make_slurm_backend,
)
from repro.experiments import registry
from repro.experiments.backends import InProcessBackend, SSHBackend
from repro.experiments.golden import golden_overrides
from repro.experiments.runner import run_experiment

ALL_EXPERIMENTS = registry.names()

#: unmarked smoke subset: every backend crossed in the fast lane
SMOKE_EXPERIMENTS = ("table1", "fig6-fig7", "protocol-tournament", "ablation-components")

#: `scaling` measures wall-clock in whichever process runs the point (see
#: scalability.py): its first N columns are deterministic, the rest timing.
DETERMINISTIC_COLUMNS = {"scaling": 5}


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


def run_on_backend(name: str, backend_kind: str, tmp_path, stub_ssh):
    experiment = registry.get(name)
    overrides = golden_overrides(experiment)
    if backend_kind == "inprocess":
        backend = InProcessBackend(hosts=["w0", "w1", "w2"])
    elif backend_kind == "local":
        return run_experiment(experiment, overrides=overrides, jobs=2)
    elif backend_kind == "ssh":
        backend = SSHBackend([loopback_spec()], ssh_command=stub_ssh)
    elif backend_kind == "slurm":
        backend = make_slurm_backend(tmp_path / "spool", InMemorySlurmTransport())
    elif backend_kind == "k8s":
        backend = make_k8s_backend(tmp_path / "spool", InMemoryK8sTransport())
    else:  # pragma: no cover - parametrization bug
        raise AssertionError(backend_kind)
    try:
        return run_experiment(experiment, overrides=overrides, backend=backend)
    finally:
        backend.shutdown()


def assert_equivalent(report, serial, name: str, backend_kind: str) -> None:
    detail = f"{name} over {backend_kind} diverged from --jobs 1"
    cutoff = DETERMINISTIC_COLUMNS.get(name)
    if cutoff is None:
        assert report.result.render() == serial.result.render(), detail
        assert report.result.rows == serial.result.rows, detail
    else:
        trim = lambda rows: [tuple(row)[:cutoff] for row in rows]  # noqa: E731
        assert trim(report.result.rows) == trim(serial.result.rows), detail
        assert report.result.headers == serial.result.headers, detail
    assert report.result.series == serial.result.series, detail
    assert report.result.xs == serial.result.xs, detail
    assert report.points == serial.points
    assert report.executed == serial.points  # nothing was cached away


class TestEquivalenceFastLane:
    """Cheap coverage that still crosses every experiment and every backend."""

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_inprocess_matches_serial(self, name, serial_baseline, tmp_path, stub_ssh):
        report = run_on_backend(name, "inprocess", tmp_path, stub_ssh)
        assert_equivalent(report, serial_baseline(name), name, "inprocess")

    @pytest.mark.parametrize("backend_kind", ["local", "ssh", "slurm", "k8s"])
    @pytest.mark.parametrize("name", SMOKE_EXPERIMENTS)
    def test_smoke_subset_matches_serial(
        self, name, backend_kind, serial_baseline, tmp_path, stub_ssh
    ):
        report = run_on_backend(name, backend_kind, tmp_path, stub_ssh)
        assert_equivalent(report, serial_baseline(name), name, backend_kind)


@pytest.mark.slow
class TestEquivalenceFullMatrix:
    """The full registry x heavyweight-backend matrix (slow lane)."""

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_local_pool_matches_serial(self, name, serial_baseline, tmp_path, stub_ssh):
        report = run_on_backend(name, "local", tmp_path, stub_ssh)
        assert_equivalent(report, serial_baseline(name), name, "local")

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_ssh_stub_matches_serial(self, name, serial_baseline, tmp_path, stub_ssh):
        report = run_on_backend(name, "ssh", tmp_path, stub_ssh)
        assert_equivalent(report, serial_baseline(name), name, "ssh")

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_slurm_stub_matches_serial(self, name, serial_baseline, tmp_path, stub_ssh):
        report = run_on_backend(name, "slurm", tmp_path, stub_ssh)
        assert_equivalent(report, serial_baseline(name), name, "slurm")

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_k8s_stub_matches_serial(self, name, serial_baseline, tmp_path, stub_ssh):
        report = run_on_backend(name, "k8s", tmp_path, stub_ssh)
        assert_equivalent(report, serial_baseline(name), name, "k8s")

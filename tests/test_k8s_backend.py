"""Tests for the Kubernetes batch backend.

Two stub levels, mirroring the SLURM backend's test strategy:

* :class:`conftest.InMemoryK8sTransport` -- a pure-python control plane
  that executes completion indices in-process, for fast unit coverage of
  Job batching, polling, fault handling, and the runner's requeue path.
* ``tools/stub_k8s.py`` behind ``$REPRO_KUBECTL_COMMAND`` -- a subprocess
  mini-kubectl driven through the *real* :class:`K8sCliTransport`
  (``create -f ... -o name``, pod-list JSON parsing, container command
  execution), for end-to-end coverage without a cluster anywhere.
"""

from __future__ import annotations

import json
import sys

import pytest

from conftest import REPO_ROOT, InMemoryK8sTransport, make_k8s_backend
from repro.cli import main
from repro.experiments.backends import (
    BackendUnavailableError,
    K8sCliTransport,
    KubernetesBackend,
    PointTask,
    RemoteCodeMismatchError,
    RemotePointError,
    WorkerLostError,
)
from repro.experiments.backends.k8s import (
    default_k8s_spool_dir,
    default_kubectl_command,
)
from repro.experiments.registry import canonical_params
from repro.experiments.runner import run_experiment

TINY = {"nodes": 4, "total_time": 1800.0}
FIG67_TINY = {"delays_min": [5, 15], **TINY, "seed": 2}


@pytest.fixture
def stub_k8s_env(tmp_path, monkeypatch):
    """Route K8sCliTransport at tools/stub_k8s.py; returns the spool dir.

    Also exports PYTHONPATH to the environment the stub's pods inherit --
    the moral equivalent of the container image shipping the sources
    (pytest's ``pythonpath = ["src"]`` is in-process only).
    """
    monkeypatch.setenv("REPRO_K8S_STUB_STATE", str(tmp_path / "stub-state.json"))
    monkeypatch.setenv(
        "REPRO_KUBECTL_COMMAND", f"{sys.executable} {REPO_ROOT / 'tools' / 'stub_k8s.py'}"
    )
    import os

    existing = os.environ.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    monkeypatch.setenv("PYTHONPATH", f"{src}:{existing}" if existing else src)
    spool = tmp_path / "spool"
    return spool


def submit_one(backend: KubernetesBackend, task: PointTask, timeout: float = 30.0):
    future = backend.submit(task)
    backend.flush()
    return future.result(timeout=timeout)


class TestInMemoryTransport:
    def test_matches_jobs1_byte_identically(self, tmp_path):
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        transport = InMemoryK8sTransport()
        backend = make_k8s_backend(tmp_path / "spool", transport)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.result.series == serial.result.series
        assert report.backend == "k8s"
        assert sum(report.host_counts.values()) == 2
        assert all(host.startswith("k8s:hc3i-") for host in report.host_counts)

    def test_burst_is_batched_into_one_indexed_job(self, tmp_path):
        """All cache-missing points of one sweep go out as ONE k8s Job."""
        transport = InMemoryK8sTransport()
        backend = make_k8s_backend(tmp_path / "spool", transport)
        try:
            run_experiment(
                "fig6-fig7",
                overrides={**TINY, "delays_min": [5, 15, 30], "seed": 2},
                backend=backend,
            )
        finally:
            backend.shutdown()
        assert transport.seq == 1  # one Job, three completion indices
        name = transport.job_names[1]
        assert transport.jobs[name] == {0: "SUCCEEDED", 1: "SUCCEEDED", 2: "SUCCEEDED"}

    def test_evicted_pod_is_requeued_on_a_fresh_job(self, tmp_path):
        """A mid-sweep node-pressure eviction must not lose the point."""
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)

        def evict_first_pod_of_first_job(job_seq, index, job):
            return "EVICTED" if (job_seq, index) == (1, 0) else None

        transport = InMemoryK8sTransport(fault=evict_first_pod_of_first_job)
        backend = make_k8s_backend(tmp_path / "spool", transport)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.retries == 1
        assert transport.seq == 2  # the requeued point went out as a fresh Job

    def test_whole_job_failure_requeues_every_point(self, tmp_path):
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        transport = InMemoryK8sTransport(
            fault=lambda job_seq, index, job: "FAILED" if job_seq == 1 else None
        )
        backend = make_k8s_backend(tmp_path / "spool", transport)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.retries == 2
        assert all(host.startswith("k8s:") for host in report.host_counts)

    def test_deadline_exceeded_is_a_retryable_loss(self, tmp_path):
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        transport = InMemoryK8sTransport(
            fault=lambda job_seq, index, job: (
                "DEADLINEEXCEEDED" if (job_seq, index) == (1, 1) else None
            )
        )
        backend = make_k8s_backend(tmp_path / "spool", transport)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.retries == 1

    def test_retry_budget_exhaustion_raises_sweep_error(self, tmp_path):
        from repro.experiments.runner import SweepError

        transport = InMemoryK8sTransport(fault=lambda *a: "FAILED")
        backend = make_k8s_backend(tmp_path / "spool", transport)
        try:
            with pytest.raises(SweepError, match="giving up"):
                run_experiment(
                    "table1",
                    overrides={**TINY, "seed": 1},
                    backend=backend,
                    max_retries=2,
                )
        finally:
            backend.shutdown()

    def test_point_error_is_not_retried(self, tmp_path):
        backend = make_k8s_backend(tmp_path / "spool")
        try:
            task = PointTask(
                experiment="does-not-exist", params={"x": 1}, fn=canonical_params
            )
            with pytest.raises(RemotePointError, match="does-not-exist"):
                submit_one(backend, task)
        finally:
            backend.shutdown()

    def test_code_mismatch_is_refused(self, tmp_path):
        class LiarTransport(InMemoryK8sTransport):
            def submit(self, job_dir, spec, n_tasks):
                self.seq += 1
                name = f"liar-{self.seq}"
                for i in range(n_tasks):
                    (job_dir / "results" / f"{i}.json").write_text(
                        json.dumps(
                            {"ok": True, "code_hash": "f" * 64, "elapsed": 0.0, "pickle": ""}
                        )
                    )
                self.jobs[name] = dict.fromkeys(range(n_tasks), "SUCCEEDED")
                self.job_names[self.seq] = name
                return name

        backend = make_k8s_backend(tmp_path / "spool", LiarTransport())
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(RemoteCodeMismatchError, match="different repro sources"):
                submit_one(backend, task)
        finally:
            backend.shutdown()

    def test_garbled_result_file_is_a_worker_loss(self, tmp_path):
        class GarblerTransport(InMemoryK8sTransport):
            def submit(self, job_dir, spec, n_tasks):
                self.seq += 1
                name = f"garbler-{self.seq}"
                for i in range(n_tasks):
                    (job_dir / "results" / f"{i}.json").write_text("{truncat")
                self.jobs[name] = dict.fromkeys(range(n_tasks), "SUCCEEDED")
                self.job_names[self.seq] = name
                return name

        backend = make_k8s_backend(tmp_path / "spool", GarblerTransport())
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(WorkerLostError, match="garbled result file"):
                submit_one(backend, task)
        finally:
            backend.shutdown()

    def test_vanished_pod_is_lost_after_unknown_grace(self, tmp_path):
        class AmnesiacTransport(InMemoryK8sTransport):
            def submit(self, job_dir, spec, n_tasks):
                self.seq += 1
                return f"amnesiac-{self.seq}"  # never runs or remembers anything

        backend = make_k8s_backend(
            tmp_path / "spool", AmnesiacTransport(), unknown_grace=3
        )
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(WorkerLostError, match="vanished"):
                submit_one(backend, task, timeout=30.0)
        finally:
            backend.shutdown()

    def test_succeeded_without_result_file_is_lost(self, tmp_path):
        class NoOutputTransport(InMemoryK8sTransport):
            def submit(self, job_dir, spec, n_tasks):
                self.seq += 1
                name = f"silent-{self.seq}"
                self.jobs[name] = dict.fromkeys(range(n_tasks), "SUCCEEDED")
                self.job_names[self.seq] = name
                return name

        backend = make_k8s_backend(
            tmp_path / "spool", NoOutputTransport(), completed_grace=2
        )
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(WorkerLostError, match="completed without a result"):
                submit_one(backend, task)
        finally:
            backend.shutdown()

    def test_point_timeout_cancels_the_job(self, tmp_path):
        class StuckTransport(InMemoryK8sTransport):
            def submit(self, job_dir, spec, n_tasks):
                self.seq += 1
                name = f"stuck-{self.seq}"
                self.jobs[name] = dict.fromkeys(range(n_tasks), "RUNNING")
                self.job_names[self.seq] = name
                return name

        transport = StuckTransport()
        backend = make_k8s_backend(tmp_path / "spool", transport, point_timeout=0.05)
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(WorkerLostError, match="no result within"):
                submit_one(backend, task)
            # k8s has no per-index cancel: the whole Job was deleted
            assert transport.job_names[1] in transport.cancelled
        finally:
            backend.shutdown()

    def test_failed_submission_is_a_retryable_worker_loss(self, tmp_path):
        class QuotaTransport(InMemoryK8sTransport):
            def submit(self, job_dir, spec, n_tasks):
                if self.seq == 0:
                    self.seq += 1
                    raise WorkerLostError("k8s", "kubectl create exit 1: quota exceeded")
                return super().submit(job_dir, spec, n_tasks)

        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        backend = make_k8s_backend(tmp_path / "spool", QuotaTransport())
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.retries == 2

    def test_unreachable_control_plane_aborts_the_sweep(self, tmp_path):
        class NoClusterTransport(InMemoryK8sTransport):
            def submit(self, job_dir, spec, n_tasks):
                raise BackendUnavailableError("cannot launch kubectl: no such file")

        backend = make_k8s_backend(tmp_path / "spool", NoClusterTransport())
        try:
            with pytest.raises(BackendUnavailableError, match="kubectl"):
                run_experiment("table1", overrides={**TINY, "seed": 1}, backend=backend)
        finally:
            backend.shutdown()

    def test_unwritable_spool_fails_the_sweep_instead_of_hanging(self):
        """A bad --spool path must surface as a sweep failure, not a hang."""
        from pathlib import Path

        from repro.experiments.runner import SweepError

        backend = make_k8s_backend(Path("/dev/null/not-a-dir"))
        try:
            with pytest.raises(SweepError, match="giving up"):
                run_experiment(
                    "table1",
                    overrides={**TINY, "seed": 1},
                    backend=backend,
                    max_retries=1,
                )
        finally:
            backend.shutdown()

    def test_successful_job_spool_is_cleaned_up(self, tmp_path):
        spool = tmp_path / "spool"
        transport = InMemoryK8sTransport()
        backend = make_k8s_backend(spool, transport)
        try:
            run_experiment("table1", overrides={**TINY, "seed": 1}, backend=backend)
        finally:
            backend.shutdown()
        assert not list(spool.rglob("job-*")), "job dirs should be removed on success"

    def test_failed_job_spool_is_kept_for_post_mortem(self, tmp_path):
        spool = tmp_path / "spool"
        transport = InMemoryK8sTransport(
            fault=lambda job_seq, index, job: "FAILED" if job_seq == 1 else None
        )
        backend = make_k8s_backend(spool, transport)
        try:
            run_experiment("table1", overrides={**TINY, "seed": 1}, backend=backend)
        finally:
            backend.shutdown()
        kept = [p.name for p in spool.rglob("job-*") if p.is_dir()]
        assert "job-0001" in kept  # the failed Job's spool survives


class TestManifestRendering:
    def make_backend(self, tmp_path, **kwargs):
        return KubernetesBackend(
            transport=InMemoryK8sTransport(),
            spool=tmp_path,
            python="/opt/py/bin/python3",
            cwd="/srv/hc3i repro",  # space: quoting must hold
            pythonpath="src",
            **kwargs,
        )

    def test_manifest_is_an_indexed_job(self, tmp_path):
        backend = self.make_backend(tmp_path, namespace="sweeps", image="repro:latest")
        manifest = backend._render_manifest(tmp_path / "sweep-1-a" / "job-0001", 7)
        try:
            assert manifest["apiVersion"] == "batch/v1"
            assert manifest["kind"] == "Job"
            assert manifest["metadata"]["name"] == "hc3i-sweep-1-a-job-0001"
            assert manifest["metadata"]["namespace"] == "sweeps"
            spec = manifest["spec"]
            assert spec["completionMode"] == "Indexed"
            assert spec["completions"] == 7
            assert spec["parallelism"] == 7
            assert spec["backoffLimit"] == 0  # retry belongs to the runner
            pod = spec["template"]["spec"]
            assert pod["restartPolicy"] == "Never"
            container = pod["containers"][0]
            assert container["image"] == "repro:latest"
        finally:
            backend.shutdown()

    def test_pod_script_runs_the_wire_worker(self, tmp_path):
        backend = self.make_backend(tmp_path)
        manifest = backend._render_manifest(tmp_path / "sweep-1-a" / "job-0001", 2)
        try:
            command = manifest["spec"]["template"]["spec"]["containers"][0]["command"]
            assert command[:2] == ["/bin/bash", "-c"]
            script = command[2]
            assert "cd '/srv/hc3i repro'" in script
            assert "export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}" in script
            assert '"$JOB_COMPLETION_INDEX".json' in script
            assert "/opt/py/bin/python3 -m repro.experiments.remote_worker" in script
            assert '&& mv "$out.tmp" "$out"' in script
        finally:
            backend.shutdown()

    def test_spool_and_cwd_are_mounted(self, tmp_path):
        backend = self.make_backend(tmp_path)
        manifest = backend._render_manifest(tmp_path / "sweep-1-a" / "job-0001", 1)
        try:
            pod = manifest["spec"]["template"]["spec"]
            mounted = {v["hostPath"]["path"] for v in pod["volumes"]}
            assert str(tmp_path) in mounted  # the spool
            assert "/srv/hc3i repro" in mounted  # the checkout
            mount_paths = {m["mountPath"] for m in pod["containers"][0]["volumeMounts"]}
            assert mounted == mount_paths  # mounted at identical paths
        finally:
            backend.shutdown()

    def test_cwd_sharing_a_string_prefix_with_the_spool_is_still_mounted(self, tmp_path):
        """'/mnt/share-code' is not under '/mnt/share': a sibling that merely
        shares a string prefix with the spool needs its own mount."""
        spool = tmp_path / "share"
        sibling = tmp_path / "share-code"
        backend = KubernetesBackend(
            transport=InMemoryK8sTransport(), spool=spool, cwd=str(sibling)
        )
        manifest = backend._render_manifest(spool / "sweep-1-a" / "job-0001", 1)
        try:
            pod = manifest["spec"]["template"]["spec"]
            mounted = {v["hostPath"]["path"] for v in pod["volumes"]}
            assert mounted == {str(spool), str(sibling)}
        finally:
            backend.shutdown()

    def test_cwd_inside_the_spool_is_not_mounted_twice(self, tmp_path):
        backend = KubernetesBackend(
            transport=InMemoryK8sTransport(),
            spool=tmp_path,
            cwd=str(tmp_path / "checkout"),
        )
        manifest = backend._render_manifest(tmp_path / "sweep-1-a" / "job-0001", 1)
        try:
            pod = manifest["spec"]["template"]["spec"]
            assert [v["hostPath"]["path"] for v in pod["volumes"]] == [str(tmp_path)]
        finally:
            backend.shutdown()

    def test_default_command_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KUBECTL_COMMAND", "python /x/stub.py")
        assert default_kubectl_command() == ("python", "/x/stub.py")
        monkeypatch.delenv("REPRO_KUBECTL_COMMAND")
        assert default_kubectl_command() == ("kubectl",)

    def test_default_spool_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_K8S_SPOOL", str(tmp_path / "sp"))
        assert default_k8s_spool_dir() == tmp_path / "sp"

    def test_namespace_and_options_reach_kubectl_argv(self):
        transport = K8sCliTransport(
            command_prefix=("kubectl",),
            namespace="sweeps",
            kubectl_options=("--context=fed-b",),
        )
        argv = transport._argv("get", "pods")
        assert argv == ["kubectl", "get", "pods", "-n", "sweeps", "--context=fed-b"]


class TestStubK8sEndToEnd:
    """Through the real K8sCliTransport against tools/stub_k8s.py."""

    def make_backend(self, spool):
        return KubernetesBackend(
            transport=K8sCliTransport(),
            spool=spool,
            python=sys.executable,
            cwd=str(REPO_ROOT),
            pythonpath="src",
            linger=0.01,
            poll_interval=0.05,
        )

    def test_matches_jobs1_byte_identically(self, stub_k8s_env):
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        backend = self.make_backend(stub_k8s_env)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.backend == "k8s"
        assert sum(report.host_counts.values()) == 2

    def test_evicted_pod_is_requeued(self, stub_k8s_env, monkeypatch):
        monkeypatch.setenv("REPRO_K8S_STUB_KILL", "1:0")
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        backend = self.make_backend(stub_k8s_env)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.retries == 1

    def test_missing_kubectl_aborts_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KUBECTL_COMMAND", "/nonexistent/kubectl-wrapper")
        backend = KubernetesBackend(
            transport=K8sCliTransport(), spool=tmp_path, linger=0.01, poll_interval=0.05
        )
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(BackendUnavailableError, match="cannot launch kubectl"):
                submit_one(backend, task)
        finally:
            backend.shutdown()


class TestSweepCliK8sFlags:
    def test_cli_end_to_end_matches_jobs1(self, stub_k8s_env, capsys):
        assert main(
            ["sweep", "table1", "--scale", "tiny", "--no-cache", "--json",
             "--backend", "k8s", "--spool", str(stub_k8s_env)]
        ) == 0
        over_k8s = json.loads(capsys.readouterr().out)
        assert main(
            ["sweep", "table1", "--scale", "tiny", "--no-cache", "--json",
             "--jobs", "1"]
        ) == 0
        serial = json.loads(capsys.readouterr().out)
        assert over_k8s["rows"] == serial["rows"]
        assert over_k8s["headers"] == serial["headers"]
        assert over_k8s["backend"] == "k8s"
        assert sum(over_k8s["host_counts"].values()) == 1

    def test_spool_defaults_under_explicit_cache_dir(self, stub_k8s_env, tmp_path, capsys):
        """--cache-dir on a shared FS must carry the spool with it."""
        cache_dir = tmp_path / "shared-cache"
        assert main(
            ["sweep", "table1", "--scale", "tiny", "--backend", "k8s",
             "--cache-dir", str(cache_dir)]
        ) == 0
        assert "backend=k8s" in capsys.readouterr().out
        assert (cache_dir / "k8s-spool").is_dir()

    def test_spool_env_beats_explicit_cache_dir(
        self, stub_k8s_env, tmp_path, monkeypatch, capsys
    ):
        """--spool, else $REPRO_K8S_SPOOL, else <--cache-dir>/k8s-spool."""
        cache_dir = tmp_path / "shared-cache"
        monkeypatch.setenv("REPRO_K8S_SPOOL", str(tmp_path / "env-spool"))
        assert main(
            ["sweep", "table1", "--scale", "tiny", "--backend", "k8s",
             "--cache-dir", str(cache_dir)]
        ) == 0
        assert "backend=k8s" in capsys.readouterr().out
        assert (tmp_path / "env-spool").is_dir()
        assert not (cache_dir / "k8s-spool").exists()

    def test_namespace_without_k8s_backend_is_an_error(self):
        with pytest.raises(SystemExit, match="only apply to --backend k8s"):
            main(["sweep", "table1", "--namespace", "sweeps"])

    def test_k8s_opt_without_k8s_backend_is_an_error(self):
        with pytest.raises(SystemExit, match="only apply to --backend k8s"):
            main(["sweep", "table1", "--k8s-opt=--context=x"])

    def test_sbatch_opt_with_k8s_backend_is_an_error(self):
        with pytest.raises(SystemExit, match="only apply to --backend slurm"):
            main(["sweep", "table1", "--backend", "k8s", "--sbatch-opt=--time=30"])

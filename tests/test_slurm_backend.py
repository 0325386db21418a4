"""Tests for the SLURM batch backend.

Two stub levels:

* :class:`conftest.InMemorySlurmTransport` -- a pure-python scheduler that
  executes array tasks in-process, for fast unit coverage of batching,
  polling, fault handling, and the runner's requeue path.
* ``tools/stub_slurm.py`` behind ``$REPRO_SLURM_COMMAND`` -- a subprocess
  mini-SLURM driven through the *real* :class:`SlurmCliTransport`
  (``sbatch --parsable``, ``sacct`` parsing, script execution via bash),
  for end-to-end coverage without a slurmctld anywhere.
"""

from __future__ import annotations

import json
import sys

import pytest

from conftest import REPO_ROOT, InMemorySlurmTransport, make_slurm_backend
from repro.cli import main
from repro.experiments.backends import (
    BackendUnavailableError,
    PointTask,
    RemoteCodeMismatchError,
    RemotePointError,
    SlurmBackend,
    SlurmCliTransport,
    WorkerLostError,
)
from repro.experiments.backends.slurm import (
    _expand_indices,
    _parse_sacct,
    _parse_squeue,
    default_slurm_command,
    default_spool_dir,
)
from repro.experiments.registry import canonical_params
from repro.experiments.runner import run_experiment

TINY = {"nodes": 4, "total_time": 1800.0}
FIG67_TINY = {"delays_min": [5, 15], **TINY, "seed": 2}


@pytest.fixture
def stub_slurm_env(tmp_path, monkeypatch):
    """Route SlurmCliTransport at tools/stub_slurm.py; returns the spool dir.

    Also exports PYTHONPATH to the environment the stub's array tasks
    inherit -- the moral equivalent of real sbatch's ``--export=ALL``
    (pytest's ``pythonpath = ["src"]`` is in-process only).
    """
    monkeypatch.setenv("REPRO_SLURM_STUB_STATE", str(tmp_path / "stub-state.json"))
    monkeypatch.setenv(
        "REPRO_SLURM_COMMAND", f"{sys.executable} {REPO_ROOT / 'tools' / 'stub_slurm.py'}"
    )
    import os

    existing = os.environ.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    monkeypatch.setenv("PYTHONPATH", f"{src}:{existing}" if existing else src)
    spool = tmp_path / "spool"
    return spool


def submit_one(backend: SlurmBackend, task: PointTask, timeout: float = 30.0):
    future = backend.submit(task)
    backend.flush()
    return future.result(timeout=timeout)


class TestInMemoryTransport:
    def test_matches_jobs1_byte_identically(self, tmp_path):
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        transport = InMemorySlurmTransport()
        backend = make_slurm_backend(tmp_path / "spool", transport)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.result.series == serial.result.series
        assert report.backend == "slurm"
        assert report.host_counts == {"slurm:1": 2}

    def test_burst_is_batched_into_one_array_job(self, tmp_path):
        """All cache-missing points of one sweep go out as ONE sbatch call."""
        transport = InMemorySlurmTransport()
        backend = make_slurm_backend(tmp_path / "spool", transport)
        try:
            run_experiment(
                "fig6-fig7",
                overrides={**TINY, "delays_min": [5, 15, 30], "seed": 2},
                backend=backend,
            )
        finally:
            backend.shutdown()
        assert transport.seq == 1  # one array job, three tasks
        assert transport.jobs["1"] == {0: "COMPLETED", 1: "COMPLETED", 2: "COMPLETED"}

    def test_killed_task_is_requeued_on_survivors(self, tmp_path):
        """A mid-sweep scancel of one array task must not lose the point."""
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)

        def kill_first_task_of_first_job(job_seq, index, job):
            return "CANCELLED" if (job_seq, index) == (1, 0) else None

        transport = InMemorySlurmTransport(fault=kill_first_task_of_first_job)
        backend = make_slurm_backend(tmp_path / "spool", transport)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.retries == 1
        assert transport.seq == 2  # the requeued point went out as a fresh job
        assert report.host_counts == {"slurm:1": 1, "slurm:2": 1}

    def test_whole_job_kill_requeues_every_point(self, tmp_path):
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        transport = InMemorySlurmTransport(
            fault=lambda job_seq, index, job: "NODE_FAIL" if job_seq == 1 else None
        )
        backend = make_slurm_backend(tmp_path / "spool", transport)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.retries == 2
        assert all(host.startswith("slurm:") for host in report.host_counts)

    def test_retry_budget_exhaustion_raises_sweep_error(self, tmp_path):
        from repro.experiments.runner import SweepError

        transport = InMemorySlurmTransport(fault=lambda *a: "FAILED")
        backend = make_slurm_backend(tmp_path / "spool", transport)
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
        backend = make_slurm_backend(tmp_path / "spool")
        try:
            task = PointTask(
                experiment="does-not-exist", params={"x": 1}, fn=canonical_params
            )
            with pytest.raises(RemotePointError, match="does-not-exist"):
                submit_one(backend, task)
        finally:
            backend.shutdown()

    def test_code_mismatch_is_refused(self, tmp_path):
        class LiarTransport(InMemorySlurmTransport):
            def submit(self, job_dir, script, n_tasks):
                self.seq += 1
                for i in range(n_tasks):
                    (job_dir / "results" / f"{i}.json").write_text(
                        json.dumps(
                            {"ok": True, "code_hash": "f" * 64, "elapsed": 0.0, "pickle": ""}
                        )
                    )
                self.jobs[str(self.seq)] = dict.fromkeys(range(n_tasks), "COMPLETED")
                return str(self.seq)

        backend = make_slurm_backend(tmp_path / "spool", LiarTransport())
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(RemoteCodeMismatchError, match="different repro sources"):
                submit_one(backend, task)
        finally:
            backend.shutdown()

    def test_garbled_result_file_is_a_worker_loss(self, tmp_path):
        class GarblerTransport(InMemorySlurmTransport):
            def submit(self, job_dir, script, n_tasks):
                self.seq += 1
                for i in range(n_tasks):
                    (job_dir / "results" / f"{i}.json").write_text("{truncat")
                self.jobs[str(self.seq)] = dict.fromkeys(range(n_tasks), "COMPLETED")
                return str(self.seq)

        backend = make_slurm_backend(tmp_path / "spool", GarblerTransport())
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(WorkerLostError, match="garbled result file"):
                submit_one(backend, task)
        finally:
            backend.shutdown()

    def test_vanished_task_is_lost_after_unknown_grace(self, tmp_path):
        class AmnesiacTransport(InMemorySlurmTransport):
            def submit(self, job_dir, script, n_tasks):
                self.seq += 1
                return str(self.seq)  # never runs anything, never remembers it

        backend = make_slurm_backend(
            tmp_path / "spool", AmnesiacTransport(), unknown_grace=3
        )
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(WorkerLostError, match="vanished"):
                submit_one(backend, task, timeout=30.0)
        finally:
            backend.shutdown()

    def test_completed_without_result_file_is_lost(self, tmp_path):
        class NoOutputTransport(InMemorySlurmTransport):
            def submit(self, job_dir, script, n_tasks):
                self.seq += 1
                self.jobs[str(self.seq)] = dict.fromkeys(range(n_tasks), "COMPLETED")
                return str(self.seq)

        backend = make_slurm_backend(
            tmp_path / "spool", NoOutputTransport(), completed_grace=2
        )
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(WorkerLostError, match="completed without a result"):
                submit_one(backend, task)
        finally:
            backend.shutdown()

    def test_point_timeout_cancels_and_loses_the_task(self, tmp_path):
        class StuckTransport(InMemorySlurmTransport):
            def submit(self, job_dir, script, n_tasks):
                self.seq += 1
                self.jobs[str(self.seq)] = dict.fromkeys(range(n_tasks), "RUNNING")
                return str(self.seq)

        transport = StuckTransport()
        backend = make_slurm_backend(tmp_path / "spool", transport, point_timeout=0.05)
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(WorkerLostError, match="no result within"):
                submit_one(backend, task)
            assert "1_0" in transport.cancelled  # the stuck array task was scancelled
        finally:
            backend.shutdown()

    def test_failed_submission_is_a_retryable_worker_loss(self, tmp_path):
        class FullQueueTransport(InMemorySlurmTransport):
            def submit(self, job_dir, script, n_tasks):
                self.seq += 1
                if self.seq == 1:
                    raise WorkerLostError("slurm", "sbatch exit 1: queue limit")
                return super().submit(job_dir, script, n_tasks)

        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        backend = make_slurm_backend(tmp_path / "spool", FullQueueTransport())
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.retries == 2

    def test_unreachable_scheduler_aborts_the_sweep(self, tmp_path):
        class NoSchedulerTransport(InMemorySlurmTransport):
            def submit(self, job_dir, script, n_tasks):
                raise BackendUnavailableError("cannot launch sbatch: no such file")

        backend = make_slurm_backend(tmp_path / "spool", NoSchedulerTransport())
        try:
            with pytest.raises(BackendUnavailableError, match="sbatch"):
                run_experiment("table1", overrides={**TINY, "seed": 1}, backend=backend)
        finally:
            backend.shutdown()

    def test_unwritable_spool_fails_the_sweep_instead_of_hanging(self):
        """A bad --spool path must surface as a sweep failure, not a hang."""
        from pathlib import Path

        from repro.experiments.runner import SweepError

        backend = make_slurm_backend(Path("/dev/null/not-a-dir"))
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
        transport = InMemorySlurmTransport()
        backend = make_slurm_backend(spool, transport)
        try:
            run_experiment("table1", overrides={**TINY, "seed": 1}, backend=backend)
        finally:
            backend.shutdown()
        assert not list(spool.rglob("job-*")), "job dirs should be removed on success"

    def test_failed_job_spool_is_kept_for_post_mortem(self, tmp_path):
        spool = tmp_path / "spool"
        transport = InMemorySlurmTransport(
            fault=lambda job_seq, index, job: "FAILED" if job_seq == 1 else None
        )
        backend = make_slurm_backend(spool, transport)
        try:
            run_experiment("table1", overrides={**TINY, "seed": 1}, backend=backend)
        finally:
            backend.shutdown()
        kept = [p.name for p in spool.rglob("job-*") if p.is_dir()]
        assert "job-0001" in kept  # the failed job's spool survives


class TestScriptRendering:
    def test_script_has_array_directive_and_worker_line(self, tmp_path):
        backend = SlurmBackend(
            transport=InMemorySlurmTransport(),
            spool=tmp_path,
            python="/opt/py/bin/python3",
            cwd="/srv/hc3i repro",  # space: quoting must hold
            pythonpath="src",
            sbatch_options=("--partition=short", "--time=30"),
        )
        script = backend._render_script(tmp_path / "job-0001", 7)
        assert "#SBATCH --array=0-6" in script
        assert "#SBATCH --partition=short" in script
        assert "#SBATCH --time=30" in script
        assert "cd '/srv/hc3i repro'" in script
        assert "export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}" in script
        assert "/opt/py/bin/python3 -m repro.experiments.remote_worker" in script
        assert '&& mv "$out.tmp" "$out"' in script
        backend.shutdown()


class TestSchedulerParsing:
    @pytest.mark.parametrize(
        "token, expected",
        [
            ("3", [3]),
            ("[0-4]", [0, 1, 2, 3, 4]),
            ("0,2-4", [0, 2, 3, 4]),
            ("[0-8%2]", list(range(9))),
        ],
    )
    def test_expand_indices(self, token, expected):
        assert _expand_indices(token) == expected

    @pytest.mark.parametrize("token", ["", "garbage"])
    def test_expand_indices_rejects_garbage(self, token):
        with pytest.raises(ValueError):
            _expand_indices(token)

    def test_parse_sacct_filters_and_normalizes(self):
        out = (
            "123_0|COMPLETED\n"
            "123_1|CANCELLED by 0\n"
            "123_[2-3]|PENDING\n"
            "124_0|FAILED\n"  # different job: ignored
            "123_0.batch|COMPLETED\n"  # job step: ignored
        )
        assert _parse_sacct(out, "123") == {
            0: "COMPLETED",
            1: "CANCELLED",
            2: "PENDING",
            3: "PENDING",
        }

    def test_parse_squeue_expands_ranges(self):
        out = "0-2|PENDING\n4|RUNNING\n"
        assert _parse_squeue(out) == {
            0: "PENDING",
            1: "PENDING",
            2: "PENDING",
            4: "RUNNING",
        }

    def test_default_command_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLURM_COMMAND", "python /x/stub.py")
        assert default_slurm_command() == ("python", "/x/stub.py")
        monkeypatch.delenv("REPRO_SLURM_COMMAND")
        assert default_slurm_command() == ()

    def test_default_spool_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SLURM_SPOOL", str(tmp_path / "sp"))
        assert default_spool_dir() == tmp_path / "sp"


class TestStubSlurmEndToEnd:
    """Through the real SlurmCliTransport against tools/stub_slurm.py."""

    def test_matches_jobs1_byte_identically(self, stub_slurm_env):
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        backend = SlurmBackend(
            transport=SlurmCliTransport(),
            spool=stub_slurm_env,
            python=sys.executable,
            cwd=str(REPO_ROOT),
            pythonpath="src",
            linger=0.01,
            poll_interval=0.05,
        )
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.backend == "slurm"
        assert sum(report.host_counts.values()) == 2

    def test_killed_array_task_is_requeued(self, stub_slurm_env, monkeypatch):
        monkeypatch.setenv("REPRO_SLURM_STUB_KILL", "1:0")
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        backend = SlurmBackend(
            transport=SlurmCliTransport(),
            spool=stub_slurm_env,
            python=sys.executable,
            cwd=str(REPO_ROOT),
            pythonpath="src",
            linger=0.01,
            poll_interval=0.05,
        )
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.retries == 1

    def test_missing_sbatch_aborts_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SLURM_COMMAND", "/nonexistent/sbatch-wrapper")
        backend = SlurmBackend(
            transport=SlurmCliTransport(), spool=tmp_path, linger=0.01, poll_interval=0.05
        )
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(BackendUnavailableError, match="cannot launch sbatch"):
                submit_one(backend, task)
        finally:
            backend.shutdown()


class TestSweepCliSlurmFlags:
    def test_cli_end_to_end_matches_jobs1(self, stub_slurm_env, capsys):
        assert main(
            ["sweep", "table1", "--scale", "tiny", "--no-cache", "--json",
             "--backend", "slurm", "--spool", str(stub_slurm_env)]
        ) == 0
        over_slurm = json.loads(capsys.readouterr().out)
        assert main(
            ["sweep", "table1", "--scale", "tiny", "--no-cache", "--json",
             "--jobs", "1"]
        ) == 0
        serial = json.loads(capsys.readouterr().out)
        assert over_slurm["rows"] == serial["rows"]
        assert over_slurm["headers"] == serial["headers"]
        assert over_slurm["backend"] == "slurm"
        assert over_slurm["host_counts"] == {"slurm:1": 1}

    def test_spool_defaults_under_explicit_cache_dir(self, stub_slurm_env, tmp_path, capsys):
        """--cache-dir on a shared FS must carry the spool with it."""
        cache_dir = tmp_path / "shared-cache"
        assert main(
            ["sweep", "table1", "--scale", "tiny", "--backend", "slurm",
             "--cache-dir", str(cache_dir)]
        ) == 0
        assert "backend=slurm" in capsys.readouterr().out
        assert (cache_dir / "slurm-spool").is_dir()

    def test_spool_env_beats_explicit_cache_dir(
        self, stub_slurm_env, tmp_path, monkeypatch, capsys
    ):
        """--spool, else $REPRO_SLURM_SPOOL, else <--cache-dir>/slurm-spool."""
        cache_dir = tmp_path / "shared-cache"
        monkeypatch.setenv("REPRO_SLURM_SPOOL", str(tmp_path / "env-spool"))
        assert main(
            ["sweep", "table1", "--scale", "tiny", "--backend", "slurm",
             "--cache-dir", str(cache_dir)]
        ) == 0
        assert "backend=slurm" in capsys.readouterr().out
        assert (tmp_path / "env-spool").is_dir()
        assert not (cache_dir / "slurm-spool").exists()

    def test_spool_without_slurm_backend_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="only apply to --backend slurm"):
            main(["sweep", "table1", "--spool", str(tmp_path)])

    def test_sbatch_opt_without_slurm_backend_is_an_error(self):
        with pytest.raises(SystemExit, match="only apply to --backend slurm"):
            main(["sweep", "table1", "--sbatch-opt=--partition=x"])

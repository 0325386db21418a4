"""Tests for the pluggable execution-backend layer of the sweep engine.

Covers the ISSUE-2 acceptance surface: JSON round-trip of every
registered experiment's grid points, worker-loss retry/reassignment
(killing a fake worker mid-sweep), and ssh-vs-``jobs=1`` result equality
-- via the :class:`InProcessBackend` test double and via a stub SSH
transport that runs the real ``remote_worker`` subprocess locally (no
sshd in CI).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.experiments.backends import (
    Backend,
    BackendUnavailableError,
    HostSpec,
    InProcessBackend,
    LocalProcessBackend,
    PointTask,
    RemoteCodeMismatchError,
    RemotePointError,
    SSHBackend,
    WorkerLostError,
    create_backend,
    parse_hosts,
)
from repro.experiments.cache import ResultCache
from repro.experiments.registry import canonical_params, coerce_set_value
from repro.experiments.remote_worker import run_job
from repro.experiments.runner import SweepError, run_experiment

from conftest import REPO_ROOT, entry_count, loopback_spec

TINY = {"nodes": 4, "total_time": 1800.0}
FIG67_TINY = {"delays_min": [5, 15], **TINY, "seed": 2}


class TestGridPointsAreWireSafe:
    """Every registered grid point must survive the remote-job wire format."""

    def test_every_grid_point_round_trips_through_json(self):
        for exp in registry.all_experiments():
            for params in exp.build_grid():
                wire = json.loads(json.dumps(params, sort_keys=True))
                assert wire == params, f"{exp.name} point is lossy over JSON"
                assert canonical_params(params) == params

    def test_canonical_params_rejects_non_string_keys(self):
        with pytest.raises(ValueError, match="round-trip"):
            canonical_params({"a": {1: "x"}})

    def test_canonical_params_rejects_non_finite_floats(self):
        with pytest.raises(ValueError, match="JSON-serializable"):
            canonical_params({"a": float("nan")})

    def test_canonical_params_still_normalizes_tuples(self):
        assert canonical_params({"a": (1, 2), "b": [3.5]}) == {"a": [1, 2], "b": [3.5]}


class TestHostsParsing:
    def test_inline_list_with_slots(self):
        hosts = parse_hosts("nodeA, nodeB:4")
        assert hosts == [HostSpec(name="nodeA"), HostSpec(name="nodeB", slots=4)]

    def test_inline_single_host(self):
        (host,) = parse_hosts("localhost")
        assert host.name == "localhost" and host.slots == 1

    def test_toml_roster_with_defaults(self, tmp_path):
        roster = tmp_path / "hosts.toml"
        roster.write_text(
            '[defaults]\npython = "python3.12"\nslots = 2\n'
            '[[hosts]]\nname = "a"\n'
            '[[hosts]]\nname = "b"\nslots = 8\ncwd = "/srv/repo"\npythonpath = "src"\n'
        )
        a, b = parse_hosts(str(roster))
        assert a == HostSpec(name="a", slots=2, python="python3.12")
        assert b.slots == 8 and b.cwd == "/srv/repo" and b.pythonpath == "src"

    def test_toml_unknown_key_rejected(self, tmp_path):
        roster = tmp_path / "hosts.toml"
        roster.write_text('[[hosts]]\nname = "a"\nports = 22\n')
        with pytest.raises(ValueError, match="unknown keys"):
            parse_hosts(str(roster))

    def test_missing_toml_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            parse_hosts(str(tmp_path / "nope.toml"))

    def test_duplicate_hosts_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_hosts("a,b,a")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_hosts("  ,  ")


class TestCreateBackend:
    def test_names(self):
        assert create_backend(None).name == "local"
        assert create_backend("local", jobs=2).name == "local"
        assert create_backend("inprocess").name == "inprocess"

    def test_instance_passes_through(self):
        backend = InProcessBackend()
        assert create_backend(backend) is backend

    def test_ssh_requires_hosts(self):
        with pytest.raises(ValueError, match="--hosts"):
            create_backend("ssh")

    def test_slurm_is_a_registered_backend(self, tmp_path):
        backend = create_backend("slurm", spool=tmp_path)
        assert backend.name == "slurm"
        backend.shutdown()

    def test_k8s_is_a_registered_backend(self, tmp_path):
        backend = create_backend("k8s", spool=tmp_path)
        assert backend.name == "k8s"
        backend.shutdown()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("nomad")


class TestInProcessBackend:
    def test_matches_jobs1_and_accounts_per_host(self):
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        backend = InProcessBackend(hosts=["w0", "w1"])
        report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        assert report.result.render() == serial.result.render()
        assert report.backend == "inprocess"
        assert report.host_counts == {"w0": 1, "w1": 1}
        assert sum(report.host_counts.values()) == report.executed == 2

    def test_worker_loss_mid_sweep_is_reassigned(self):
        """Kill one fake worker mid-sweep: its point must finish elsewhere."""
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)

        def die_once(task, host, attempt):
            return host == "w1" and attempt == 1

        backend = InProcessBackend(hosts=["w0", "w1"], fault=die_once)
        report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        assert report.result.render() == serial.result.render()
        assert report.retries == 1
        assert report.host_counts == {"w0": 2}  # the dead host computed nothing
        assert backend.hosts() == ["w0"]

    def test_retry_budget_exhaustion_raises_sweep_error(self):
        backend = InProcessBackend(
            hosts=["w0", "w1", "w2", "w3", "w4", "w5"],
            fault=lambda task, host, attempt: True,
        )
        with pytest.raises(SweepError, match="giving up"):
            run_experiment(
                "table1", overrides={**TINY, "seed": 1}, backend=backend, max_retries=2
            )

    def test_all_hosts_dead_aborts(self):
        backend = InProcessBackend(
            hosts=["w0"], fault=lambda task, host, attempt: True
        )
        with pytest.raises((BackendUnavailableError, SweepError)):
            run_experiment("table1", overrides={**TINY, "seed": 1}, backend=backend)

    def test_partial_failure_reruns_only_missing_points(self, tmp_path):
        """Streaming cache writes: an aborted sweep resumes where it died."""
        cache = ResultCache(tmp_path)
        overrides = {"delays_min": [5, 15, 30], **TINY, "seed": 2}

        state = {"done": 0}

        def die_after_two(task, host, attempt):
            if state["done"] >= 2:
                return True
            state["done"] += 1
            return False

        doomed = InProcessBackend(hosts=["w0"], fault=die_after_two)
        with pytest.raises((SweepError, BackendUnavailableError)):
            run_experiment(
                "fig6-fig7", overrides=overrides, backend=doomed,
                cache=cache, max_retries=0,
            )
        assert entry_count(cache) == 2  # the completed points were persisted

        resumed = run_experiment(
            "fig6-fig7", overrides=overrides, backend=InProcessBackend(), cache=cache
        )
        assert resumed.cache_hits == 2 and resumed.executed == 1
        fresh = run_experiment("fig6-fig7", overrides=overrides, jobs=1)
        assert resumed.result.render() == fresh.result.render()

    def test_journal_records_provenance(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment(
            "fig6-fig7",
            overrides=FIG67_TINY,
            backend=InProcessBackend(hosts=["w0", "w1"]),
            cache=cache,
        )
        entries = cache.journal_entries()
        assert len(entries) == 2
        assert {e["host"] for e in entries} == {"w0", "w1"}
        assert all(e["experiment"] == "fig6-fig7" for e in entries)


class TestLocalProcessBackend:
    def test_pool_path_matches_inline_path(self):
        inline = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        pooled = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=2)
        assert pooled.result.render() == inline.result.render()
        assert pooled.backend == "local"
        assert pooled.host_counts == {"local": 2}

    def test_crashed_pool_worker_surfaces_as_worker_loss(self, tmp_path):
        backend = LocalProcessBackend(jobs=2)
        try:
            task = PointTask(
                experiment="crash", params={"marker": str(tmp_path / "s")}, fn=_die_hard
            )
            with pytest.raises(WorkerLostError, match="local"):
                backend.submit(task).result()
            # the backend replaces the broken pool, so new work still runs
            ok = backend.submit(
                PointTask(experiment="ok", params={"x": 1}, fn=canonical_params)
            ).result()
            assert ok.value == {"x": 1} and ok.host == "local"
        finally:
            backend.shutdown()

    def test_runner_retries_through_pool_crash(self, tmp_path):
        """A worker that dies once must not kill the sweep.

        Two grid points, so the pool path engages (one pending point runs
        inline by design); killing one worker breaks the whole pool, so
        every in-flight point is retried on the replacement pool.
        """
        markers = [str(tmp_path / "crash-a"), str(tmp_path / "crash-b")]
        crashy = dataclasses.replace(
            registry.get("table1"),
            grid=lambda: [{"marker": m} for m in markers],
            point=_die_once,
            reduce=lambda grid, points: points,
        )
        report = run_experiment(crashy, jobs=2)
        assert report.result == [{"survived": True}, {"survived": True}]
        assert report.retries >= 1

    def test_single_pending_point_runs_inline_even_with_jobs(self):
        """Historical behaviour: no pool spawn for one cache-missing point."""
        backend = LocalProcessBackend(jobs=8)
        backend.prepare(1)
        outcome = backend.submit(
            PointTask(experiment="t", params={"x": 1}, fn=canonical_params)
        ).result()
        assert outcome.value == {"x": 1}
        assert backend._pool is None  # never paid for worker processes
        backend.shutdown()

    def test_pool_size_bounded_by_pending_hint(self):
        backend = LocalProcessBackend(jobs=8)
        backend.prepare(2)
        try:
            tasks = [
                PointTask(experiment="t", params={"x": i}, fn=canonical_params)
                for i in range(2)
            ]
            futures = [backend.submit(task) for task in tasks]
            backend.flush()
            assert [f.result().value for f in futures] == [{"x": 0}, {"x": 1}]
            # the CPUs this process may run on, as the backend counts them
            cpus = (
                len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1
            )
            assert backend._pool is not None
            assert backend._pool._max_workers == min(8, 2, cpus)
        finally:
            backend.shutdown()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
    )
    def test_pool_size_follows_the_cpus_this_process_may_run_on(self):
        """Under ``taskset``, a cpuset or a SLURM allocation the machine has
        more CPUs than the process may use: ``--jobs 8`` pinned to one CPU
        is one worker, not eight thrashing on it."""
        script = textwrap.dedent(
            """
            import os
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            from repro.experiments.backends import LocalProcessBackend, PointTask
            from repro.experiments.registry import canonical_params
            backend = LocalProcessBackend(jobs=8)
            backend.prepare(8)
            try:
                tasks = [PointTask("t", {"x": i}, canonical_params) for i in range(3)]
                futures = [backend.submit(task) for task in tasks]
                backend.flush()
                assert [f.result().value["x"] for f in futures] == [0, 1, 2]
                print(backend._pool._max_workers)
            finally:
                backend.shutdown()
            """
        )
        src = str(REPO_ROOT / "src")
        existing = os.environ.get("PYTHONPATH")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": f"{src}:{existing}" if existing else src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    def test_serial_sweep_fails_fast(self):
        """jobs=1 must stop at the first failing point, not run the grid out."""
        ran = []

        def record(params):
            ran.append(params["i"])
            if params["i"] == 1:
                raise RuntimeError("deterministic point failure")
            return params

        exploding = dataclasses.replace(
            registry.get("table1"),
            grid=lambda: [{"i": i} for i in range(10)],
            point=record,
            reduce=lambda grid, points: points,
        )
        backend = InProcessBackend()
        with pytest.raises(RuntimeError, match="deterministic point failure"):
            run_experiment(exploding, backend=backend)
        assert ran == [0, 1]  # points 2..9 never executed


class TestChunkedDispatch:
    """``--jobs N`` ships short points to the pool in chunks sized from their
    measured time and long points one by one; a chunk is a unit of transport
    only -- every point still has its own future, value, failure and retry."""

    N = 300

    @pytest.fixture
    def chunks(self, monkeypatch):
        """Every pool round trip of the test, as the grid indices it carried."""
        shipped: list = []
        pool_submit = ProcessPoolExecutor.submit

        def recording_submit(pool, fn, tasks):
            shipped.append([task.params["i"] for task in tasks])
            return pool_submit(pool, fn, tasks)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
        return shipped

    def _experiment(self, point, n=N, **extra):
        return dataclasses.replace(
            registry.get("table1"),
            name=f"chunked-{point.__name__}",
            grid=lambda: [{"i": i, **extra} for i in range(n)],
            point=point,
            reduce=lambda grid, points: points,
            scaled=False,
        )

    def test_short_points_share_round_trips(self, chunks, tmp_path):
        exp = self._experiment(canonical_params)
        cache = ResultCache(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # submit() and the pool thread share the backlog
        try:
            report = run_experiment(exp, jobs=2, cache=cache)
        finally:
            sys.setswitchinterval(interval)
        assert report.result == [{"i": i} for i in range(self.N)]  # grid order
        assert report.host_counts == {"local": self.N}
        assert (report.executed, report.retries) == (self.N, 0)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(self.N))
        assert chunks[0] == [0]  # nothing is measured yet: one point per trip
        assert len(chunks) < self.N
        assert entry_count(cache) == self.N
        again = run_experiment(exp, jobs=2, cache=cache)
        assert (again.cache_hits, again.executed) == (self.N, 0)

    def test_a_raising_point_fails_alone(self, chunks, tmp_path):
        exp = self._experiment(_explode_at_150)
        cache = ResultCache(tmp_path)
        with pytest.raises(RuntimeError, match="point 150 exploded") as caught:
            run_experiment(exp, jobs=2, cache=cache)
        assert any("_explode_at_150" in note for note in caught.value.__notes__)
        mates = next(chunk for chunk in chunks if 150 in chunk)
        assert len(mates) > 1 and mates[0] < 150 < mates[-1]  # mid-chunk
        for i in mates:
            expected = None if i == 150 else {"i": i}
            assert cache.get(exp.name, {"i": i}) == expected

    def test_a_dead_worker_requeues_every_point_of_its_chunk(self, chunks, tmp_path):
        exp = self._experiment(_die_once_at_150, marker=str(tmp_path / "died"))
        report = run_experiment(exp, jobs=2)
        assert [p["i"] for p in report.result] == list(range(self.N))
        mates = next(chunk for chunk in chunks if 150 in chunk)
        assert len(mates) > 1
        for i in mates:  # shipped again, each in its own right
            assert sum(chunk.count(i) for chunk in chunks) >= 2
        # a shipped point either came back or was lost and requeued, one by one
        assert report.retries == sum(len(chunk) for chunk in chunks) - self.N
        assert report.retries >= len(mates)

    def test_a_point_slower_than_the_chunk_target_travels_alone(self, chunks):
        report = run_experiment(self._experiment(_slow, n=8), jobs=2)
        assert [p["i"] for p in report.result] == list(range(8))
        assert sorted(chunks) == [[i] for i in range(8)]

    def test_submit_needs_no_flush_and_shutdown_cancels_the_backlog(self):
        backend = LocalProcessBackend(jobs=2)
        backend.prepare(50)
        try:
            first = backend.submit(PointTask("t", {"i": 0}, canonical_params))
            assert first.result(timeout=60).value == {"i": 0}  # no flush() called
            futures = [
                backend.submit(PointTask("t", {"i": i}, _slow)) for i in range(1, 50)
            ]
        finally:
            backend.shutdown()
        assert all(future.done() for future in futures)
        assert any(future.cancelled() for future in futures)


class TestSSHBackend:
    def test_matches_jobs1_byte_identically(self, stub_ssh):
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        backend = SSHBackend([loopback_spec()], ssh_command=stub_ssh)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.result.series == serial.result.series
        assert report.backend == "ssh"
        assert report.host_counts == {"loopback": 2}

    def test_dead_host_points_reassigned_to_live_host(self, stub_ssh):
        serial = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        roster = [
            dataclasses.replace(loopback_spec("deadhost"), slots=1),
            loopback_spec("loopback"),
        ]
        backend = SSHBackend(roster, ssh_command=stub_ssh, max_host_strikes=1)
        try:
            report = run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        finally:
            backend.shutdown()
        assert report.result.render() == serial.result.render()
        assert report.host_counts.get("deadhost", 0) == 0
        assert report.host_counts["loopback"] == 2
        assert report.retries >= 1
        assert backend.hosts() == ["loopback"]

    def test_all_hosts_dead_aborts_not_hangs(self, stub_ssh):
        backend = SSHBackend(
            [dataclasses.replace(loopback_spec("deadhost"), slots=1)],
            ssh_command=stub_ssh,
            max_host_strikes=1,
        )
        try:
            with pytest.raises((SweepError, BackendUnavailableError, WorkerLostError)):
                run_experiment(
                    "table1", overrides={**TINY, "seed": 1}, backend=backend
                )
        finally:
            backend.shutdown()

    def test_code_mismatch_is_refused(self, tmp_path):
        """A host running different sources must not contribute results."""
        liar = tmp_path / "liar-ssh.py"
        liar.write_text(
            "#!/usr/bin/env python3\n"
            "import base64, json, pickle, sys\n"
            "print(json.dumps({'ok': True, 'code_hash': 'f' * 64,\n"
            "                  'elapsed': 0.0,\n"
            "                  'pickle': base64.b64encode(pickle.dumps({})).decode()}))\n"
        )
        backend = SSHBackend(
            [loopback_spec()], ssh_command=(sys.executable, str(liar))
        )
        try:
            task = PointTask(experiment="table1", params={"x": 1}, fn=canonical_params)
            with pytest.raises(RemoteCodeMismatchError, match="different repro sources"):
                backend.submit(task).result()
        finally:
            backend.shutdown()

    def test_stale_host_point_error_diagnosed_as_code_mismatch(self, tmp_path):
        """ok=false from an out-of-sync checkout must say 'sync the repo',
        not present the stale host's confusing point traceback."""
        stale = tmp_path / "stale-ssh.py"
        stale.write_text(
            "#!/usr/bin/env python3\n"
            "import json\n"
            "print(json.dumps({'ok': False, 'code_hash': 'e' * 64,\n"
            "                  'error': \"KeyError: unknown experiment 'shiny-new'\",\n"
            "                  'traceback': ''}))\n"
        )
        backend = SSHBackend(
            [loopback_spec()], ssh_command=(sys.executable, str(stale))
        )
        try:
            fut = backend.submit(
                PointTask(experiment="shiny-new", params={"x": 1}, fn=canonical_params)
            )
            with pytest.raises(RemoteCodeMismatchError, match="sync the repo"):
                fut.result()
        finally:
            backend.shutdown()

    def test_env_var_overrides_transport(self, stub_ssh, monkeypatch):
        from repro.experiments.backends.ssh import default_ssh_command

        monkeypatch.setenv("REPRO_SSH_COMMAND", " ".join(stub_ssh))
        assert default_ssh_command() == tuple(stub_ssh)
        monkeypatch.delenv("REPRO_SSH_COMMAND")
        assert default_ssh_command()[0] == "ssh"


class TestRemoteWorker:
    def test_run_job_success_envelope_round_trips_value(self):
        import base64
        import pickle

        params = {**TINY, "seed": 3}
        envelope = run_job({"experiment": "table1", "params": params})
        assert envelope["ok"] is True
        value = pickle.loads(base64.b64decode(envelope["pickle"]))
        assert value == registry.get("table1").point(canonical_params(params))
        json.dumps(envelope)  # the envelope itself must be wire-safe

    def test_run_job_unknown_experiment_reports_point_error(self):
        envelope = run_job({"experiment": "nope", "params": {}})
        assert envelope["ok"] is False
        assert "unknown experiment" in envelope["error"]

    def test_point_error_is_not_retried(self, stub_ssh, tmp_path):
        """ok=false envelopes raise RemotePointError, not WorkerLostError."""
        backend = SSHBackend([loopback_spec()], ssh_command=stub_ssh)
        try:
            fut = backend.submit(
                PointTask(experiment="does-not-exist", params={"x": 1}, fn=canonical_params)
            )
            with pytest.raises(RemotePointError, match="does-not-exist"):
                fut.result()
        finally:
            backend.shutdown()


class TestSweepCliBackendFlags:
    def test_backend_local_explicit(self, tmp_path, capsys):
        rc = main(
            ["sweep", "table1", "--scale", "tiny", "--backend", "local",
             "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend=local" in out

    def test_backend_ssh_requires_hosts(self):
        with pytest.raises(SystemExit, match="--hosts"):
            main(["sweep", "table1", "--backend", "ssh"])

    def test_hosts_without_ssh_backend_is_an_error(self):
        # an explicit flag must never be a silent no-op
        with pytest.raises(SystemExit, match="only applies to --backend ssh"):
            main(["sweep", "table1", "--hosts", "nodeA"])

    def test_backend_ssh_end_to_end_matches_jobs1(
        self, stub_ssh, tmp_path, capsys, monkeypatch
    ):
        """`repro sweep ... --backend ssh --hosts <loopback>` == `--jobs 1`."""
        roster = tmp_path / "hosts.toml"
        roster.write_text(
            "[[hosts]]\n"
            'name = "loopback"\n'
            "slots = 2\n"
            f'python = "{sys.executable}"\n'
            f'cwd = "{REPO_ROOT}"\n'
            'pythonpath = "src"\n'
        )
        monkeypatch.setenv("REPRO_SSH_COMMAND", " ".join(stub_ssh))
        assert main(
            ["sweep", "table1", "--scale", "tiny", "--no-cache", "--json",
             "--backend", "ssh", "--hosts", str(roster)]
        ) == 0
        over_ssh = json.loads(capsys.readouterr().out)
        assert main(
            ["sweep", "table1", "--scale", "tiny", "--no-cache", "--json",
             "--jobs", "1"]
        ) == 0
        serial = json.loads(capsys.readouterr().out)
        assert over_ssh["rows"] == serial["rows"]
        assert over_ssh["headers"] == serial["headers"]
        assert over_ssh["backend"] == "ssh"
        assert over_ssh["host_counts"] == {"loopback": 1}

    def test_summary_reports_hosts(self, capsys):
        # the fields surface through SweepReport.summary() -> CLI output
        report = run_experiment(
            "fig6-fig7",
            overrides=FIG67_TINY,
            backend=InProcessBackend(hosts=["a", "b"]),
        )
        text = report.summary()
        assert "backend=inprocess" in text
        assert "[hosts: a=1 b=1]" in text


class TestSetOverrides:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("5", 5),
            ("5.5", 5.5),
            ("true", True),
            ("False", False),
            ("[5, 15]", [5, 15]),
            ("hc3i", "hc3i"),
            ("3600.0", 3600.0),
        ],
    )
    def test_coercion(self, raw, expected):
        value = coerce_set_value(raw)
        assert value == expected and type(value) is type(expected)

    def test_set_reshapes_a_grid(self, capsys):
        rc = main(
            ["sweep", "fig6-fig7", "--scale", "tiny", "--no-cache", "--json",
             "--set", "delays_min=[5]"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 1 and payload["xs"] == [5]

    @pytest.mark.parametrize(
        "raw", ["NaN", "Infinity", "-Infinity", "[5, NaN]", '{"a": [Infinity]}']
    )
    def test_non_finite_set_values_rejected_cleanly(self, raw):
        with pytest.raises(ValueError, match="finite"):
            coerce_set_value(raw)
        with pytest.raises(SystemExit, match="finite"):
            main(["sweep", "table1", "--no-cache", "--set", f"nodes={raw}"])

    def test_set_unknown_key_is_an_error(self):
        with pytest.raises(SystemExit, match="does not accept bogus_key="):
            main(["sweep", "table1", "--no-cache", "--set", "bogus_key=1"])

    def test_set_malformed_pair_is_an_error(self):
        with pytest.raises(SystemExit, match="KEY=VALUE"):
            main(["sweep", "table1", "--no-cache", "--set", "nodes"])

    def test_set_overrides_scale_profile(self, capsys):
        rc = main(
            ["sweep", "table1", "--scale", "tiny", "--no-cache", "--json",
             "--set", "nodes=6"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 1  # ran with nodes=6, not tiny's 4


class _ScriptedBatchBackend(Backend):
    """A synchronous stand-in for batching backends (SLURM/k8s).

    ``submit`` only buffers -- nothing runs until ``flush`` dispatches
    the whole buffer as one batch, exactly the shape of an array-job or
    indexed-Job submission.  ``script(task, attempt)`` decides each
    dispatched task's fate: an exception instance is delivered through
    the future, anything else becomes the point value.
    """

    name = "scripted-batch"

    def __init__(self, script):
        self._script = script
        self._buffer = []
        self._attempts = {}
        self.batches = []

    def submit(self, task):
        from concurrent.futures import Future

        future = Future()
        self._buffer.append((task, future))
        return future

    def flush(self):
        from repro.experiments.backends import PointOutcome

        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self.batches.append([task.params for task, _ in batch])
        for task, future in batch:
            key = json.dumps(task.params, sort_keys=True)
            attempt = self._attempts.get(key, 0) + 1
            self._attempts[key] = attempt
            verdict = self._script(task, attempt)
            if isinstance(verdict, BaseException):
                future.set_exception(verdict)
            else:
                future.set_result(
                    PointOutcome(value=verdict, host="scripted", elapsed=0.0)
                )


class TestAbortingSweepNeverResubmits:
    """The runner must not let a batching backend dispatch resubmissions
    for a sweep that has already recorded a fatal failure -- the regression
    where ``backend.flush()`` ran after a non-retryable error was recorded
    for another future in the same completed batch."""

    def test_requeue_plus_fatal_in_one_batch_submits_no_new_job(self):
        """One poll delivers a retryable loss AND a fatal point error; the
        requeued point must stay in the buffer, not go out as a fresh job.

        The runner collects completions first in, first out, and the
        scripted ``flush`` resolves its batch in grid order: the loss
        (``delay_min == 5``, point 0) is requeued and buffered by the time
        the fatal error (point 1) is recorded -- the exact interleaving
        that used to trigger the extra submission.
        """
        fatal = RemotePointError("scripted", "deterministic point failure")

        def script(task, attempt):
            if task.params.get("delay_min") == 5:
                return WorkerLostError("scripted", "pod evicted")
            return fatal

        backend = _ScriptedBatchBackend(script)
        with pytest.raises(RemotePointError, match="deterministic point failure"):
            run_experiment("fig6-fig7", overrides=FIG67_TINY, backend=backend)
        assert backend.batches[0][0]["delay_min"] == 5  # the loss did come first
        assert len(backend.batches) == 1, (
            "the aborting sweep submitted a fresh batch of resubmissions"
        )

    def test_inline_fatal_failure_skips_the_submission_flush(self):
        """Synchronous backends fail at submit time; the post-burst flush
        must not run once that failure is recorded."""

        class FlushSpy(InProcessBackend):
            flush_calls = 0

            def flush(self):
                type(self).flush_calls += 1

        exploding = dataclasses.replace(registry.get("fig6-fig7"), point=_explode)
        backend = FlushSpy()
        with pytest.raises(RuntimeError, match="inline point failure"):
            run_experiment(exploding, overrides=FIG67_TINY, backend=backend)
        assert FlushSpy.flush_calls == 0


# -- module-level point functions (must pickle by reference into workers) --


def _explode(params):
    raise RuntimeError("inline point failure")


def _after_the_burst(params):
    """Hold the first round trips (one per in-flight slot) until the runner
    has queued the whole grid behind them, so chunks form from a full backlog."""
    if params["i"] < 4:
        time.sleep(0.25)


def _explode_at_150(params):
    _after_the_burst(params)
    if params["i"] == 150:
        raise RuntimeError("point 150 exploded")
    return params


def _die_once_at_150(params):
    """Kill the worker the first time point 150 runs."""
    _after_the_burst(params)
    marker = Path(params["marker"])
    if params["i"] == 150 and not marker.exists():
        marker.write_text("x")
        os._exit(1)
    return params


def _slow(params):
    time.sleep(0.03)  # longer than local.CHUNK_TARGET_S
    return params


def _die_hard(params):
    """Kill the worker process outright: simulates a crashed host."""
    import os

    os._exit(1)


def _die_once(params):
    """Kill the worker on first execution, succeed on the retry."""
    import os
    from pathlib import Path

    marker = Path(params["marker"])
    if not marker.exists():
        marker.write_text("x")
        os._exit(1)
    return {"survived": True}

"""Tests for the execution-backend layer of the sweep engine.

Covers JSON round-trip of every registered experiment's grid points,
worker-loss retry/reassignment (killing a fake worker mid-sweep, crashing
a pool worker) and the local pool's chunked dispatch -- via the
:class:`InProcessBackend` test double and the real process pool.
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
    InProcessBackend,
    LocalProcessBackend,
    PointTask,
    RemoteCodeMismatchError,
    RemotePointError,
    WorkerLostError,
    create_backend,
)
from repro.experiments.cache import ResultCache
from repro.experiments.registry import (
    SCALE_PROFILES,
    canonical_params,
    coerce_set_value,
    resolve_overrides,
)
from repro.experiments.remote_worker import decode_envelope, make_wire_job, run_job
from repro.experiments.runner import SweepError, run_experiment

from conftest import REPO_ROOT, entry_count

TINY = {"nodes": 4, "total_time": 1800.0}
FIG67_TINY = {"delays_min": [5, 15], **TINY, "seed": 2}


class TestGridPointsAreWireSafe:
    """Every registered grid point must survive a JSON round-trip: its
    canonical JSON is what the cache key digests."""

    @pytest.mark.parametrize("scale", sorted(SCALE_PROFILES))
    def test_every_grid_point_round_trips_through_json(self, scale):
        """Every grid at every scale, ``full`` included: a value like a
        ``{1: ...}`` key would be cached under a different point's key."""
        for exp in registry.all_experiments():
            for params in exp.build_grid(resolve_overrides(exp, scale)):
                wire = json.loads(json.dumps(params, sort_keys=True))
                assert wire == params, f"{exp.name} point is lossy over JSON at {scale}"
                assert canonical_params(params) == params

    def test_canonical_params_rejects_non_string_keys(self):
        with pytest.raises(ValueError, match="round-trip"):
            canonical_params({"a": {1: "x"}})

    def test_canonical_params_rejects_non_finite_floats(self):
        with pytest.raises(ValueError, match="JSON-serializable"):
            canonical_params({"a": float("nan")})

    def test_canonical_params_still_normalizes_tuples(self):
        assert canonical_params({"a": (1, 2), "b": [3.5]}) == {"a": [1, 2], "b": [3.5]}


class TestCreateBackend:
    def test_names(self):
        assert create_backend(None).name == "local"
        assert create_backend("local", jobs=2).name == "local"
        assert create_backend("inprocess").name == "inprocess"

    def test_instance_passes_through(self):
        backend = InProcessBackend()
        assert create_backend(backend) is backend

    def test_slurm_is_a_registered_backend(self, tmp_path):
        backend = create_backend("slurm", spool=tmp_path)
        assert backend.name == "slurm"
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


class TestRemoteWorker:
    """The SLURM array task's worker: one JSON job in, one envelope out."""

    def test_wire_job_is_exactly_experiment_params_and_handshake(self):
        job = make_wire_job(PointTask("table1", {"seed": 1}, fn=dict))
        assert sorted(job) == ["code_hash", "experiment", "params"]

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

    def test_point_error_is_not_retried(self):
        """ok=false envelopes raise RemotePointError, not WorkerLostError."""
        task = PointTask(experiment="does-not-exist", params={"x": 1}, fn=canonical_params)
        envelope = run_job(make_wire_job(task))
        with pytest.raises(RemotePointError, match="does-not-exist"):
            decode_envelope(envelope, "node1")

    def test_stale_point_error_is_diagnosed_as_code_mismatch(self):
        """ok=false from an out-of-sync checkout must say 'sync the repo',
        not present the stale node's confusing point traceback."""
        envelope = {
            "ok": False,
            "code_hash": "e" * 64,
            "error": "KeyError: unknown experiment 'shiny-new'",
            "traceback": "",
        }
        with pytest.raises(RemoteCodeMismatchError, match="sync the repo"):
            decode_envelope(envelope, "node1")


class TestSweepCliBackendFlags:
    def test_backend_local_explicit(self, tmp_path, capsys):
        rc = main(
            ["sweep", "table1", "--scale", "tiny", "--backend", "local",
             "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend=local" in out

    @pytest.mark.parametrize("flag", ["--hosts=a", "--namespace=n", "--k8s-opt=x"])
    def test_a_retired_flag_exits_2_naming_itself(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "table1", "--scale", "tiny", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_the_retired_cache_verb_is_an_unknown_command(self, capsys):
        assert main(["cache", "export", "x"]) == 2
        assert "unknown command 'cache'" in capsys.readouterr().err

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
    """A synchronous stand-in for batching backends (SLURM).

    ``submit`` only buffers -- nothing runs until ``flush`` dispatches
    the whole buffer as one batch, exactly the shape of an array-job
    submission.  ``script(task, attempt)`` decides each dispatched task's
    fate: an exception instance is delivered through the future, anything
    else becomes the point value.
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

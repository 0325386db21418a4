"""Tests for the execution-backend layer of the sweep engine.

Covers JSON round-trip of every registered experiment's grid points,
the inline path, worker-loss retry (crashing a pool worker) and the local
pool's chunked dispatch -- on the real process pool.
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
    LocalProcessBackend,
    PointTask,
    WorkerLostError,
    create_backend,
)
from repro.experiments.cache import JOURNAL_HOST, ResultCache
from repro.experiments.registry import (
    SCALE_PROFILES,
    canonical_params,
    coerce_set_value,
    resolve_overrides,
)
from repro.experiments.runner import MAX_RETRIES, SweepError, run_experiment

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
        assert create_backend("local", jobs=2).jobs == 2
        # the name the benchmark ladder passes: the inline path, whatever jobs says
        assert create_backend("inprocess", jobs=4).jobs == 1

    def test_instance_passes_through(self):
        backend = LocalProcessBackend()
        assert create_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("nomad")


class TestLocalProcessBackend:
    def test_pool_path_matches_inline_path(self):
        inline = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1)
        pooled = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=2)
        assert pooled.result.render() == inline.result.render()
        assert pooled.backend == "local"

    def test_partial_failure_reruns_only_missing_points(self, tmp_path):
        """Streaming cache writes: an aborted sweep resumes where it died."""
        cache = ResultCache(tmp_path)
        overrides = {"delays_min": [5, 15, 30], **TINY, "seed": 2}
        fig67 = registry.get("fig6-fig7")

        def fail_at_30(params):
            if params["delay_min"] == 30:
                raise RuntimeError("point failed at delay_min=30")
            return fig67.point(params)

        doomed = dataclasses.replace(fig67, point=fail_at_30)
        with pytest.raises(RuntimeError, match="delay_min=30"):
            run_experiment(doomed, overrides=overrides, backend="inprocess", cache=cache)
        assert entry_count(cache) == 2  # the completed points were persisted

        resumed = run_experiment(fig67, overrides=overrides, backend="inprocess", cache=cache)
        assert resumed.cache_hits == 2 and resumed.executed == 1
        fresh = run_experiment(fig67, overrides=overrides, jobs=1)
        assert resumed.result.render() == fresh.result.render()

    def test_journal_records_provenance(self, tmp_path):
        """Inline and pooled points alike carry the machine they ran on;
        ``inprocess`` is the inline path under the name the benchmark
        ladder passes."""
        for jobs, backend in ((1, "inprocess"), (2, "local")):
            cache = ResultCache(tmp_path / backend)
            run_experiment(
                "fig6-fig7", overrides=FIG67_TINY, jobs=jobs, backend=backend, cache=cache
            )
            entries = cache.journal_entries()
            assert len(entries) == 2
            assert all(e["host"] == JOURNAL_HOST for e in entries)
            assert all(e["experiment"] == "fig6-fig7" for e in entries)

    def test_crashed_pool_worker_surfaces_as_worker_loss(self, tmp_path):
        backend = LocalProcessBackend(jobs=2)
        try:
            task = PointTask(params={"marker": str(tmp_path / "s")}, fn=_die_hard)
            with pytest.raises(WorkerLostError, match="process pool worker died"):
                backend.submit(task).result()
            # the backend replaces the broken pool, so new work still runs
            ok = backend.submit(PointTask(params={"x": 1}, fn=canonical_params)).result()
            assert ok.value == {"x": 1}
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

    def test_retry_budget_exhaustion_raises_sweep_error(self):
        """A point that kills its worker on every attempt ends the sweep once
        its retries are spent, instead of respawning pools forever."""
        doomed = dataclasses.replace(
            registry.get("table1"),
            grid=lambda: [{"i": 0}, {"i": 1}],  # two points: the pool engages
            point=_die_hard,
            reduce=lambda grid, points: points,
        )
        with pytest.raises(SweepError, match=f"giving up after {MAX_RETRIES} retries"):
            run_experiment(doomed, jobs=2)

    def test_single_pending_point_runs_inline_even_with_jobs(self):
        """Historical behaviour: no pool spawn for one cache-missing point."""
        backend = LocalProcessBackend(jobs=8)
        backend.prepare(1)
        outcome = backend.submit(PointTask(params={"x": 1}, fn=canonical_params)).result()
        assert outcome.value == {"x": 1}
        assert backend._pool is None  # never paid for worker processes
        backend.shutdown()

    def test_pool_size_bounded_by_pending_hint(self):
        backend = LocalProcessBackend(jobs=8)
        backend.prepare(2)
        try:
            tasks = [PointTask(params={"x": i}, fn=canonical_params) for i in range(2)]
            futures = [backend.submit(task) for task in tasks]
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
                tasks = [PointTask({"x": i}, canonical_params) for i in range(3)]
                futures = [backend.submit(task) for task in tasks]
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
        with pytest.raises(RuntimeError, match="deterministic point failure"):
            run_experiment(exploding)
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
            first = backend.submit(PointTask({"i": 0}, canonical_params))
            assert first.result(timeout=60).value == {"i": 0}  # dispatched at submit
            futures = [
                backend.submit(PointTask({"i": i}, _slow)) for i in range(1, 50)
            ]
        finally:
            backend.shutdown()
        assert all(future.done() for future in futures)
        assert any(future.cancelled() for future in futures)


class TestSweepCliBackendFlags:
    @pytest.mark.parametrize(
        "flag",
        ["--hosts=a", "--namespace=n", "--k8s-opt=x", "--backend=local",
         "--spool=x", "--sbatch-opt=x"],
    )
    def test_a_retired_flag_exits_2_naming_itself(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "table1", "--scale", "tiny", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_the_retired_cache_verb_is_an_unknown_command(self, capsys):
        assert main(["cache", "export", "x"]) == 2
        assert "unknown command 'cache'" in capsys.readouterr().err


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

    def test_a_deeply_nested_set_value_is_refused_naming_its_key(self):
        raw = "[" * 20000  # json.loads raises RecursionError on it
        with pytest.raises(ValueError, match="nested too deeply"):
            coerce_set_value(raw)
        with pytest.raises(SystemExit, match=r"^seed: override value '\[\[\["):
            main(["sweep", "table1", "--scale", "tiny", "--no-cache", "--set", f"seed={raw}"])

    def test_a_refused_value_reads_as_refused(self):
        with pytest.raises(SystemExit) as refused:
            main(["sweep", "baselines", "--scale", "tiny", "--no-cache", "--set", "nodes=1"])
        assert str(refused.value).startswith(
            "experiment 'baselines': refuses nodes=1: study 'baselines' crashes node 1"
        )

    def test_a_refusal_names_only_the_keys_the_caller_set(self):
        """Not the scale profile's ``nodes``/``total_time``."""
        with pytest.raises(SystemExit) as refused:
            main(["sweep", "fig8", "--scale", "tiny", "--no-cache", "--set", "delays_min=5"])
        assert str(refused.value) == (
            "experiment 'fig8': refuses delays_min=5: 'int' object is not iterable"
        )

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


# -- module-level point functions (must pickle by reference into workers) --


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
    time.sleep(0.03)  # longer than backends.CHUNK_TARGET_S
    return params


def _die_hard(params):
    """Kill the worker process outright: simulates a crashed worker."""
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

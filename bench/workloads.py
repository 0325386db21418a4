"""The five workloads: inputs from the seed, set-up, verification, one timed unit.

Every workload exposes the same four steps to ``bench/worker.py``:

``setup()``
    untimed but reported (``setup_s``): imports, registry load, input
    grids, caches, the server process.
``verify()``
    one untimed repetition that fixes what every timed repetition must
    reproduce: the exact kernel event count (sim workloads run it under
    ``repro.sim.trace_digest.capture()``) and the result hash.
``repetition(spans=None)``
    one fixed *unit* of work, timed from outside.  With ``spans`` the
    repetition is the traced one: the harness wraps the calls it makes
    (and the objects it injects through public parameters) in spans.
``close()``
    stops what set-up started.

The workload seed only reaches the program as generated inputs (grid
seeds, federation seeds, URLs).  Why each workload exists is recorded in
``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import cProfile
import contextlib
import dataclasses
import http.client
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.app.workloads import pipeline_workload
from repro.cluster.federation import Federation
from repro.experiments import registry
from repro.experiments.backends import Backend, create_backend
from repro.experiments.cache import ResultCache, code_version_hash
from repro.experiments.registry import Experiment
from repro.experiments.runner import run_experiment
from repro.sim import trace_digest

from harness import (
    OUT_DIR,
    ROOT,
    SRC,
    Spans,
    derived_seeds,
    fold_profile,
    mean_us_by_name,
    percentile,
    result_hash,
    self_times,
)

#: the paper's Table 1 (§5.2): messages per (sender cluster, receiver cluster)
PAPER_TABLE1 = {"0->0": 2920, "1->1": 2497, "0->1": 145, "1->0": 11}
#: Poisson noise on the 11-message flow alone is ~30%; beyond this the
#: calibrated workload no longer reproduces Table 1 and the run is wrong
TABLE1_REL_ERR_LIMIT = 0.5


@dataclass
class Rep:
    """One repetition of the unit: its timed parts, operations attempted and failed."""

    #: ``(work, host seconds)`` of each separately timed part of the unit, in
    #: unit order (a point, a sweep pass, a request slice)
    parts: list
    attempted: int
    failures: list = field(default_factory=list)
    #: per-phase samples of this repetition, keyed by per-layer metric name
    phases: dict = field(default_factory=dict)
    #: per-layer values only a traced repetition produces (shares, counts, spans)
    layers: dict = field(default_factory=dict)

    @property
    def work(self) -> int:
        return sum(work for work, _seconds in self.parts)

    @property
    def seconds(self) -> float:
        return sum(seconds for _work, seconds in self.parts)


class Workload:
    name = ""
    #: what ``work`` counts, for the printed report
    work_unit = "events"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tmp = OUT_DIR / "tmp" / f"{self.name}-{os.getpid()}"

    def inputs(self) -> dict:
        """What the program will be given, as a pure function of the seed."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def verify(self) -> dict:
        """Returns ``{"events", "result_sha256", "attempted", "failures", ...}``."""
        raise NotImplementedError

    def repetition(self, spans: Spans | None = None) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def fresh_dir(self, label: str) -> Path:
        path = self.tmp / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


# ===================================================================== sim


@contextlib.contextmanager
def collect_federation_results():
    """Keep every ``FederationResults`` produced inside the block.

    ``Experiment.point`` returns a summary and drops the federation, so the
    simulated counts (messages, CLCs, rollbacks, GC rounds) are otherwise
    out of reach.  This is the one place the harness wraps a public method
    of ``src/`` instead of passing a parameter; it is active only during
    the traced repetition, never while an end-to-end metric is timed.
    """
    collected: dict = {}
    original = Federation.results

    def results(self):
        out = original(self)
        collected[id(self)] = out  # a federation asked twice counts once
        return out

    Federation.results = results
    try:
        yield collected
    finally:
        Federation.results = original


class SimWorkload(Workload):
    """A unit is a fixed list of ``(label, callable, params)`` simulations."""

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.calls: list = []
        #: exact kernel events of each call, from the verification repetition
        self.call_events: list = []
        self.sha = ""

    @property
    def events(self) -> int:
        return sum(self.call_events)

    def run_unit(self, spans: Spans | None = None, capture: bool = False) -> tuple:
        """Run every call once; returns ``(results, failures, seconds, events)`` per call."""
        results, failures, seconds, events = [], [], [], []
        for label, fn, params in self.calls:
            with contextlib.ExitStack() as stack:
                if spans is not None:
                    stack.enter_context(spans.span("point", label=label))
                digest = stack.enter_context(trace_digest.capture()) if capture else None
                start = time.perf_counter()
                try:
                    results.append(fn(params))
                except Exception as exc:  # a raising point is a failed operation
                    results.append(None)
                    failures.append(f"{label}: {type(exc).__name__}: {exc}")
                seconds.append(time.perf_counter() - start)
                events.append(digest.events if digest is not None else 0)
        return results, failures, seconds, events

    def verify(self) -> dict:
        results, failures, _seconds, self.call_events = self.run_unit(capture=True)
        self.sha = result_hash(results)
        out = {
            "events": self.events,
            "result_sha256": self.sha,
            "attempted": len(self.calls),
            "failures": failures,
        }
        self.check_results(results, out)
        return out

    def check_results(self, results: list, out: dict) -> None:
        """Workload-specific checks on the verification repetition's results."""

    def repetition(self, spans: Spans | None = None) -> Rep:
        if spans is not None:
            return self._traced_repetition(spans)
        results, failures, seconds, _events = self.run_unit()
        return Rep(
            list(zip(self.call_events, seconds)), len(self.calls), self._check(results, failures)
        )

    def _check(self, results: list, failures: list) -> list:
        if not failures and result_hash(results) != self.sha:
            # every point of the unit is suspect: count them all
            failures = [
                f"{label}: result differs from the verification repetition"
                for label, _fn, _params in self.calls
            ]
        return failures

    def _traced_repetition(self, spans: Spans) -> Rep:
        profile = cProfile.Profile()
        with collect_federation_results() as collected, spans.span("repetition"):
            profile.enable()
            try:
                results, failures, seconds, _events = self.run_unit(spans)
            finally:
                profile.disable()
        shares, calls = fold_profile(profile)
        layers = {f"share.{name}": value for name, value in shares.items()}
        layers.update(self._counts(list(collected.values()), calls))
        return Rep(
            list(zip(self.call_events, seconds)),
            len(self.calls),
            self._check(results, failures),
            layers=layers,
        )

    def _counts(self, federations: list, calls: dict) -> dict:
        receives = sum(
            count
            for (path, func), count in calls.items()
            if func == "on_receive" and path.split(os.sep, 1)[0] in ("core", "baselines")
        )
        return {
            "count.events": self.events,
            "count.points": len(self.calls),
            "count.fabric_sends": calls.get((os.path.join("network", "fabric.py"), "send"), 0),
            "count.agent_receives": receives,
            "count.app_msgs": sum(sum(r.messages.values()) for r in federations),
            "count.protocol_msgs": sum(r.protocol_messages for r in federations),
            "count.clc_commits": sum(
                c.get("clc_total", 0) or 0 for r in federations for c in r.clusters
            ),
            "count.forced_clcs": sum(
                c.get("clc_forced", 0) or 0 for r in federations for c in r.clusters
            ),
            "count.rollbacks": sum(r.counter("rollback/total") for r in federations),
            "count.gc_rounds": sum(len(r.gc_series(0)) for r in federations),
        }


class PaperEval(SimWorkload):
    """One paper-scale point of each of table1, table2, table3 and fig9."""

    name = "paper_eval"
    EXPERIMENTS = ("table1", "table2", "table3", "fig9")

    def inputs(self) -> dict:
        seeds = derived_seeds(self.seed, self.name, len(self.EXPERIMENTS))
        overrides = {}
        for name, seed in zip(self.EXPERIMENTS, seeds):
            # grid defaults are the paper's scale: 100 nodes per cluster, 10 h
            overrides[name] = {"seed": seed}
            if self.smoke:
                overrides[name].update(nodes=4, total_time=1800.0)
        # fig9's heaviest x: 110 messages 1->0, the most forced CLCs
        overrides["fig9"]["message_counts"] = [110]
        return {"overrides": overrides}

    def setup(self) -> None:
        for name, overrides in self.inputs()["overrides"].items():
            experiment = registry.get(name)
            for index, params in enumerate(experiment.build_grid(overrides)):
                self.calls.append((f"{name}[{index}]", experiment.point, params))

    def check_results(self, results: list, out: dict) -> None:
        table1 = results[0]
        if table1 is None:
            return
        # smoke runs 4 nodes for 0.5 h: the expected counts scale with node-seconds
        scale = (4 * 1800.0) / (100 * 36000.0) if self.smoke else 1.0
        errors = [
            abs(table1["messages"][flow] - paper * scale) / (paper * scale)
            for flow, paper in PAPER_TABLE1.items()
        ]
        out["table1_rel_err"] = sum(errors) / len(errors)
        if not self.smoke and out["table1_rel_err"] > TABLE1_REL_ERR_LIMIT:
            out["failures"].append(
                f"table1[0]: mean relative error {out['table1_rel_err']:.3f} vs the "
                f"paper's Table 1 exceeds {TABLE1_REL_ERR_LIMIT}"
            )


class AppTraffic(SimWorkload):
    """HC3I under a message-heavy pipeline, built and run through ``Federation``."""

    name = "app_traffic"

    def inputs(self) -> dict:
        return {
            "federation_seeds": derived_seeds(self.seed, self.name, 2),
            "pipeline": {
                "nodes_per_stage": 4 if self.smoke else 20,
                "n_stages": 3,
                "total_time": 600.0 if self.smoke else 2 * 3600.0,
                "mean_compute": 5.0,
            },
        }

    def setup(self) -> None:
        inputs = self.inputs()
        for seed in inputs["federation_seeds"]:
            self.calls.append(
                (f"hc3i[{seed}]", _run_pipeline, {"seed": seed, **inputs["pipeline"]})
            )


def _run_pipeline(params: dict):
    params = dict(params)
    seed = params.pop("seed")
    topology, application, timers = pipeline_workload(**params)
    return Federation(topology, application, timers, protocol="hc3i", seed=seed).run()


class FamiliesFaulty(SimWorkload):
    """The protocol tournament: all eight entrants, two injected failures."""

    name = "families_faulty"
    GRIDS = 2

    def inputs(self) -> dict:
        overrides = [{"seed": seed} for seed in derived_seeds(self.seed, self.name, self.GRIDS)]
        if self.smoke:
            overrides = [{**o, "nodes": 4, "total_time": 1800.0} for o in overrides[:1]]
        return {"overrides": overrides}

    def setup(self) -> None:
        experiment = registry.get("protocol-tournament")
        for overrides in self.inputs()["overrides"]:
            for params in experiment.build_grid(overrides):
                label = f"{params['label']}[{params['seed']}]"
                self.calls.append((label, experiment.point, params))


# =================================================================== sweep

SWEEP_EXPERIMENT = "bench-sweep-points"


def _sweep_grid(n: int = 200, seed: int = 0) -> list:
    """``n`` points of the Table 1 workload at 2 nodes, 300 s: ~0.5 ms of simulation each."""
    return [
        {"nodes": 2, "total_time": 300.0, "seed": point_seed}
        for point_seed in derived_seeds(seed, SWEEP_EXPERIMENT, n)
    ]


def _sweep_reduce(grid: list, points: list) -> dict:
    return {"points": list(points)}


def sweep_experiment() -> Experiment:
    """Register the bench-local experiment (once per process) and return it."""
    return registry.register(
        Experiment(
            name=SWEEP_EXPERIMENT,
            title="bench: many tiny Table 1 points",
            grid=_sweep_grid,
            point=registry.get("table1").point,
            reduce=_sweep_reduce,
            scaled=False,
        )
    )


class SweepPoints(Workload):
    """Many tiny points through ``run_experiment`` and a fresh ``ResultCache``.

    One unit = a cold serial pass (writes: ``put`` + journal ``record`` +
    ``checkpoint.gc_for``), warm passes over the same cache (reads: ``key``
    + ``get``), then a cold ``jobs=2`` pass on a second fresh cache.

    Two choices keep ``work_per_s`` steady on the sandbox's ext4, where
    creating a file or a directory under the checkout costs 50-600 us of
    kernel time and wanders between the two over tens of seconds (measured:
    the same 400-point cold pass at 770 to 1440 points/s within one minute
    on an idle machine, while warm passes stayed within 3%):

    * 256 warm passes of 200 points per unit, so the two cold passes are a
      fifth of the unit's time, not two thirds: a sweep is computed once and
      re-read many times.  The cold rates stay visible as per-layer metrics.
    * no cache is deleted while the run measures (``close()`` removes them
      all, ~4k small files): with deletion after every repetition the
      kernel time of a cold pass grew from 50 to 200 ms within 30 s.
    """

    name = "sweep_points"
    work_unit = "points"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n_points = 40 if smoke else 200
        self.warm_passes = 2 if smoke else 256
        self.experiment = None
        self.events = 0
        self.sha = ""
        self._dirs = 0

    def inputs(self) -> dict:
        return {"overrides": {"n": self.n_points, "seed": self.seed}}

    def setup(self) -> None:
        self.experiment = sweep_experiment()
        code_version_hash()  # every ResultCache needs it; users pay it once per process
        self.tmp.mkdir(parents=True, exist_ok=True)

    # -- one pass -----------------------------------------------------------

    def _cache(self, spans: Spans | None):
        self._dirs += 1
        root = self.fresh_dir(f"cache-{self._dirs}")
        return ResultCache(root) if spans is None else TracedCache(root, spans)

    def _pass(self, cache, jobs: int, spans: Spans | None, expect_hits: int, failures: list):
        """One ``run_experiment`` call; returns ``(report, seconds)``."""
        experiment = self.experiment
        overrides = self.inputs()["overrides"]
        if spans is not None:
            experiment = dataclasses.replace(
                experiment, reduce=_spanned(spans, "reduce", experiment.reduce)
            )
            if jobs == 1:  # a wrapped point cannot be pickled to pool workers
                experiment = dataclasses.replace(
                    experiment, point=_spanned(spans, "point", experiment.point)
                )
        start = time.perf_counter()
        if spans is None:
            report = run_experiment(experiment, overrides=overrides, jobs=jobs, cache=cache)
        else:
            # what run_experiment does with a backend name, with the span wrapper between
            backend = TracedBackend(create_backend("local", jobs=jobs), spans)
            try:
                with spans.span("run_experiment", jobs=jobs, expect_hits=expect_hits):
                    report = run_experiment(
                        experiment, overrides=overrides, jobs=jobs, cache=cache, backend=backend
                    )
            finally:
                backend.shutdown()
        seconds = time.perf_counter() - start
        expected = (expect_hits, self.n_points - expect_hits)
        if (report.cache_hits, report.executed) != expected:
            failures.append(
                f"pass jobs={jobs}: (cache_hits, executed) = "
                f"{(report.cache_hits, report.executed)}, expected {expected}"
            )
        elif self.sha and result_hash(report.result) != self.sha:
            failures.append(f"pass jobs={jobs}: result differs from the verification pass")
        return report, seconds

    def _check_journal(self, cache, report, failures: list) -> None:
        journal = cache.journal_by_key()
        missing = sum(
            1 for params in report.grid if cache.key(report.name, params) not in journal
        )
        if missing:
            failures.append(f"journal lacks {missing} of {len(report.grid)} entries")

    def verify(self) -> dict:
        failures: list = []
        cache = self._cache(None)
        with trace_digest.capture() as digest:
            report, _ = self._pass(cache, 1, None, 0, failures)
        self.events = digest.events
        self.sha = result_hash(report.result)
        self._check_journal(cache, report, failures)
        self._pass(cache, 1, None, self.n_points, failures)  # warm == cold
        return {
            "events": self.events,
            "result_sha256": self.sha,
            "attempted": 2,
            "failures": failures,
        }

    def repetition(self, spans: Spans | None = None) -> Rep:
        failures: list = []
        n = self.n_points
        with spans.span("repetition") if spans is not None else contextlib.nullcontext():
            cache = self._cache(spans)
            report, cold = self._pass(cache, 1, spans, 0, failures)
            warm = [self._pass(cache, 1, spans, n, failures)[1] for _ in range(self.warm_passes)]
            cache2 = self._cache(spans)
            report2, cold2 = self._pass(cache2, 2, spans, 0, failures)
        self._check_journal(cache, report, failures)
        self._check_journal(cache2, report2, failures)
        rep = Rep(
            parts=[(n, cold), *((n, seconds) for seconds in warm), (n, cold2)],
            attempted=2 + self.warm_passes,
            failures=failures,
            phases={
                "sweep.cold_points_per_s": n / cold,
                "sweep.cold_jobs2_points_per_s": n / cold2,
                "sweep.warm_points_per_s": n * self.warm_passes / sum(warm),
            },
        )
        if spans is not None:
            rep.layers = self._span_layers(spans)
        return rep

    def _span_layers(self, spans: Spans) -> dict:
        means = mean_us_by_name(spans.spans)
        selfs = self_times(spans.spans)
        runner_self = sum(selfs[s["id"]] for s in spans.spans if s["name"] == "run_experiment")
        handled = sum(1 for s in spans.spans if s["name"] == "cache.get")
        return {
            "span.cache_get_us": means.get("cache.get", 0.0),
            "span.cache_put_us": means.get("cache.put", 0.0),
            "span.cache_record_us": means.get("cache.record", 0.0),
            "span.backend_submit_us": means.get("backend.submit", 0.0),
            "span.reduce_us": means.get("reduce", 0.0),
            # every point of every pass starts with one cache.get
            "span.runner_self_us": runner_self / handled * 1e6 if handled else 0.0,
            "count.events": self.events,
            "count.points": handled,
        }


def _spanned(spans: Spans, name: str, fn):
    def wrapped(*args):
        with spans.span(name):
            return fn(*args)

    return wrapped


class TracedCache(ResultCache):
    """A ``ResultCache`` whose reads and writes show up as spans."""

    def __init__(self, root, spans: Spans) -> None:
        super().__init__(root)
        self.spans = spans

    def get(self, experiment, params):
        with self.spans.span("cache.get"):
            return super().get(experiment, params)

    def put(self, experiment, params, value):
        with self.spans.span("cache.put"):
            return super().put(experiment, params, value)

    def record(self, experiment, params, host, elapsed=0.0):
        with self.spans.span("cache.record"):
            return super().record(experiment, params, host, elapsed)


class TracedBackend(Backend):
    """Wraps the real backend; every submission is a span."""

    name = "traced"

    def __init__(self, inner: Backend, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans

    def submit(self, task):
        with self.spans.span("backend.submit"):
            return self.inner.submit(task)

    def prepare(self, n_tasks: int) -> None:
        self.inner.prepare(n_tasks)

    def flush(self) -> None:
        self.inner.flush()

    def shutdown(self) -> None:
        self.inner.shutdown()


# =================================================================== serve


def warm_serve_cache(root: Path, seeds) -> ResultCache:
    """A cache for ``repro serve``: one tiny ``table1`` point per seed, plus one
    entry of a filler experiment in every shard directory that would otherwise
    not exist (see :class:`ServePoints`)."""
    # journal_shards must match the server's default or the watermark differs
    cache = ResultCache(root, journal_shards=4)
    experiment = registry.get("table1")
    for seed in seeds:
        params = experiment.build_grid({"nodes": 4, "total_time": 600.0, "seed": seed})[0]
        cache.put(experiment.name, params, experiment.point(params))
    # one file per directory, not a thousand spread over them: set-up time
    # follows the sandbox's cost of creating a file, which wanders tenfold
    for i in range(2048):  # leaves a given directory out once in e^8 tries
        params = {"i": i}
        if not cache.path(cache.key("bench-filler", params)).parent.exists():
            cache.put("bench-filler", params, 0)
    return cache


class ServePoints(Workload):
    """``repro serve`` as a subprocess, two keep-alive connections, closed loop.

    One unit = a ``hot`` slice (re-reading 64 pre-warmed keys: steady state
    all from the in-memory tier) followed by a ``mixed`` slice (1 request
    in 50 asks for a never-seen seed: the compute tier writes through the
    cache, its journal record advances the watermark and flushes the hot
    tier, so the re-reads fall to disk and refill it).

    Two things keep one repetition like the next.  The cache also holds the
    entries of a filler experiment, as a cache that sweeps have used does:
    the server lists the cache root on every request (journal
    shards are found with a glob), so on a nearly empty cache each newly
    computed key makes every later request dearer, until all 256 shard
    directories exist (hot slices fell from 4300 to 2500 requests/s within
    one run).  And the server is pinned to the last core, the load generator
    to the first: left alone, the scheduler stacks both on one core for
    seconds at a time and the rate halves.
    """

    name = "serve_points"
    work_unit = "requests"
    CONNECTIONS = 2
    FRESH_EVERY = 50

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n_keys = 8 if smoke else 64
        self.slice_s = 0.3 if smoke else 0.7
        self.server = None
        self.port = 0
        self.paths: list = []
        self.bodies: dict = {}
        self._fresh = iter(())
        self.sha = ""
        self._affinity = os.sched_getaffinity(0)

    def inputs(self) -> dict:
        seeds = derived_seeds(self.seed, self.name, self.n_keys)
        return {
            "paths": [self._path(seed) for seed in seeds],
            "fresh_seed_base": derived_seeds(self.seed, self.name + ":fresh", 1)[0],
        }

    @staticmethod
    def _path(seed: int) -> str:
        return f"/experiments/table1/points?scale=tiny&total_time=600.0&seed={seed}"

    def setup(self) -> None:
        inputs = self.inputs()
        self.paths = inputs["paths"]
        # never-seen seeds: a strictly increasing run far from the derived ones
        base = 2**32 + inputs["fresh_seed_base"]
        self._fresh = iter(range(base, base + 10**9))
        root = self.fresh_dir("cache")
        warm_serve_cache(root, derived_seeds(self.seed, self.name, self.n_keys))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--cache-dir", str(root)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        cpus = sorted(self._affinity)
        if len(cpus) >= 2:  # threads started from here on inherit the masks
            os.sched_setaffinity(self.server.pid, {cpus[-1]})
            os.sched_setaffinity(0, {cpus[0]})

    def close(self) -> None:
        os.sched_setaffinity(0, self._affinity)
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        super().close()

    def peak_rss_mb(self) -> float:
        """The server's peak (valid once ``close`` has reaped it)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- client ---------------------------------------------------------------

    def _get(self, conn, path: str) -> tuple:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        return response.status, response.getheader("X-Repro-Source"), body

    def _connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def stats(self) -> dict:
        conn = self._connect()
        try:
            _status, _tier, body = self._get(conn, "/stats")
        finally:
            conn.close()
        return json.loads(body)

    def _warm(self, failures: list) -> None:
        """Read every key once so the next slice starts from a full hot tier."""
        conn = self._connect()
        try:
            for path in self.paths:
                status, _tier, body = self._get(conn, path)
                if status != 200:
                    failures.append(f"warm-up: {status} for {path}")
                self._remember(path, body, failures)
        finally:
            conn.close()

    def _remember(self, path: str, body: bytes, failures: list) -> None:
        known = self.bodies.setdefault(path, body)
        if known != body:
            failures.append(f"body of {path} differs across tiers")

    def _slice(self, phase: str, failures: list, record: list | None = None) -> dict:
        """Both connections hammer the server for ``slice_s`` seconds."""
        allowed = {"hot"} if phase == "hot" else {"hot", "disk"}
        stop_at = time.perf_counter() + self.slice_s
        results: list = [None] * self.CONNECTIONS
        lock = threading.Lock()

        def client(index: int) -> None:
            conn = self._connect()
            latencies, errors, sent = [], [], index * (self.FRESH_EVERY // 2)
            try:
                while time.perf_counter() < stop_at:
                    sent += 1
                    fresh = phase == "mixed" and sent % self.FRESH_EVERY == 0
                    if fresh:
                        with lock:
                            path = self._path(next(self._fresh))
                    else:
                        path = self.paths[sent % len(self.paths)]
                    start = time.perf_counter()
                    status, tier, body = self._get(conn, path)
                    end = time.perf_counter()
                    latencies.append(end - start)
                    if record is not None:
                        record.append((start, end, tier))
                    if status != 200:
                        errors.append(f"{phase}: status {status} for {path}")
                    elif fresh and tier != "computed":
                        errors.append(f"{phase}: never-seen seed answered by tier {tier!r}")
                    elif not fresh and tier not in allowed:
                        errors.append(f"{phase}: tier {tier!r} for a pre-warmed key")
                    elif not fresh and body != self.bodies[path]:
                        errors.append(f"{phase}: body of {path} differs across tiers")
            finally:
                conn.close()
            results[index] = (latencies, errors)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.CONNECTIONS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        latencies = sorted(s for r in results for s in r[0])
        for _latencies, errors in results:
            failures.extend(errors)
        return {
            "requests": len(latencies),
            "seconds": seconds,
            "qps": len(latencies) / seconds,
            "p50_ms": percentile(latencies, 50) * 1e3,
            "p99_ms": percentile(latencies, 99) * 1e3,
        }

    def verify(self) -> dict:
        failures: list = []
        self._warm(failures)
        # the bodies minus their cache key, which moves with every source edit
        answers = {path: json.loads(body) for path, body in self.bodies.items()}
        for answer in answers.values():
            del answer["key"]
        self.sha = result_hash(answers)
        # one never-seen key through all three tiers: its bodies must agree.  The
        # compute tier leaves it hot; a second new key flushes the hot tier
        # (its journal record moves the watermark), so the re-read comes from disk.
        first, second = self._path(next(self._fresh)), self._path(next(self._fresh))
        conn = self._connect()
        try:
            seen = [self._get(conn, path) for path in (first, second, first, first)]
        finally:
            conn.close()
        tiers = [tier for _status, tier, _body in seen]
        if tiers != ["computed", "computed", "disk", "hot"]:
            failures.append(f"tiers for new keys were {tiers}, expected computed x2, disk, hot")
        if len({body for _status, _tier, body in (seen[0], seen[2], seen[3])}) != 1:
            failures.append("a key's body differs across tiers")
        return {
            "events": 0,
            "result_sha256": self.sha,
            "attempted": len(self.paths) + 4,
            "failures": failures,
        }

    def repetition(self, spans: Spans | None = None) -> Rep:
        failures: list = []
        record: list | None = [] if spans is not None else None
        layers: dict = {}
        with spans.span("repetition") if spans is not None else contextlib.nullcontext():
            self._warm(failures)
            before = self.stats() if spans is not None else None
            hot = self._slice("hot", failures, record)
            middle = self.stats() if spans is not None else None
            mixed = self._slice("mixed", failures, record)
            if spans is not None:
                layers = self._stats_layers(before, middle, self.stats())
                for start, end, tier in record:
                    spans.add("http.request", start, end, tier=tier)
                for tier in ("hot", "disk", "computed"):
                    samples = [end - start for start, end, seen in record if seen == tier]
                    layers[f"span.http_{tier}_us"] = (
                        sum(samples) / len(samples) * 1e6 if samples else 0.0
                    )
        return Rep(
            parts=[(hot["requests"], hot["seconds"]), (mixed["requests"], mixed["seconds"])],
            attempted=hot["requests"] + mixed["requests"],
            failures=failures,
            phases={
                "serve.hot_qps": hot["qps"],
                "serve.hot_p50_ms": hot["p50_ms"],
                "serve.hot_p99_ms": hot["p99_ms"],
                "serve.mixed_qps": mixed["qps"],
                "serve.mixed_p99_ms": mixed["p99_ms"],
            },
            layers=layers,
        )

    @staticmethod
    def _stats_layers(before: dict, middle: dict, after: dict) -> dict:
        """Tier ratios per phase from the server's own ``GET /stats`` deltas.

        Every point request makes exactly one hot-tier lookup, so lookups
        count the requests (the route's own ``count`` in ``/stats`` stops at
        the size of its latency ring).
        """

        def delta(new: dict, old: dict) -> tuple:
            hot = new["hot_tier"]["hits"] - old["hot_tier"]["hits"]
            lookups = hot + new["hot_tier"]["misses"] - old["hot_tier"]["misses"]
            disk = new["disk_cache"]["hits"] - old["disk_cache"]["hits"]
            return hot, lookups, disk

        hot, lookups, _disk = delta(middle, before)
        m_hot, m_lookups, m_disk = delta(after, middle)
        return {
            "serve.hot_ratio": hot / lookups if lookups else 0.0,
            "serve.disk_ratio": m_disk / m_lookups if m_lookups else 0.0,
            "serve.computed_ratio": (
                (m_lookups - m_hot - m_disk) / m_lookups if m_lookups else 0.0
            ),
            "serve.rejected_429": after["requests"]["rejected"],
        }


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (PaperEval, AppTraffic, FamiliesFaulty, SweepPoints, ServePoints)
}

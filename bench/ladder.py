"""The layer ladder: every layer timed from outside through its public calls.

Rungs climb from the bare kernel to one protocol agent in the loop, each
in the same units where that is possible (operations per host second), so
``network.fabric_vs_kernel`` and ``core.hc3i.vs_fabric`` say where the gap
between the kernel's rate and a whole experiment's rate opens.  Tracing
is off everywhere in this file.  Run as a child by ``bench/run.py``;
prints one JSON object ``{metric: value}``.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import harness

harness.require_sources()

from repro.app.process import scripted_sender_factory  # noqa: E402
from repro.app.workloads import table1_workload, table3_workload  # noqa: E402
from repro.cluster.federation import Federation  # noqa: E402
from repro.config.application import ApplicationConfig, ClusterAppSpec  # noqa: E402
from repro.config.timers import TimersConfig  # noqa: E402
from repro.core.recovery_line import cascade_targets, compute_min_sns  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.golden import all_experiment_digests  # noqa: E402
from repro.experiments.registry import Experiment  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.network.fabric import Fabric  # noqa: E402
from repro.network.message import Message, MessageKind, NodeId  # noqa: E402
from repro.network.topology import ClusterSpec, Topology  # noqa: E402
from repro.serve import HotTier, Request, ServeApp, start_in_thread  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.sim.process import Process, Timeout  # noqa: E402
from repro.sim.snapshot import SimClock  # noqa: E402
from repro.sim.stats import StatsRegistry  # noqa: E402
from repro.sim.timers import PeriodicTimer  # noqa: E402

from workloads import sweep_experiment, warm_serve_cache  # noqa: E402

#: (package, protocol name) of every family rung
FAMILIES = (
    ("core", "hc3i"),
    ("core", "hc3i-transitive"),
    ("baselines", "global-coordinated"),
    ("baselines", "independent"),
    ("baselines", "pessimistic-log"),
    ("baselines", "cic-always"),
    ("baselines", "min-process"),
    ("baselines", "clc-cic"),
)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# --------------------------------------------------------------------- sim


def kernel_events_per_s(n: int) -> float:
    sim = Simulator()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < n:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    return n / timed(sim.run)


def process_resumes_per_s(n: int, procs: int = 5) -> float:
    sim = Simulator()

    def body():
        for _ in range(n):
            yield Timeout(1.0)

    for _ in range(procs):
        Process(sim, body())
    return n * procs / timed(sim.run)


def timer_firings_per_s(horizon: float, n_timers: int = 200) -> float:
    sim = Simulator()
    timers = [PeriodicTimer(sim, 1.0 + i * 0.01, lambda: None) for i in range(n_timers)]
    for timer in timers:
        timer.start()
    seconds = timed(lambda: sim.run(until=horizon))
    return sum(timer.firings for timer in timers) / seconds


# ----------------------------------------------------------------- network


def two_clusters(nodes: int) -> Topology:
    return Topology(clusters=[ClusterSpec("c0", nodes), ClusterSpec("c1", nodes)])


def fabric_msgs_per_s(n: int) -> float:
    """``Message(...)`` + ``Fabric.send`` + delivery to a no-op receiver, 2x10 nodes."""
    sim = Simulator()
    topology = two_clusters(10)
    fabric = Fabric(sim, topology, StatsRegistry(SimClock(sim)))
    nodes = list(topology.all_nodes())
    for node in nodes:
        fabric.register(node, lambda msg: None)
    pairs = [(nodes[i], nodes[(i * 7 + 3) % len(nodes)]) for i in range(len(nodes))]

    def run() -> None:
        sent = 0
        while sent < n:
            for src, dst in pairs:
                fabric.send(Message(src, dst, MessageKind.APP, 1024))
            sent += len(pairs)
            sim.run()

    return n / timed(run)


# ----------------------------------------------------------------- cluster


def idle_federation(topology: Topology, protocol: str) -> Federation:
    """A started federation whose application never sends and whose timers never fire."""
    n = topology.n_clusters
    application = ApplicationConfig(
        clusters=[ClusterAppSpec(mean_compute=1.0, send_probabilities=[0.0] * n)] * n,
        total_time=1e9,
    )
    federation = Federation(
        topology,
        application,
        TimersConfig(clc_periods=[None] * n, gc_period=None),
        protocol=protocol,
        seed=1,
        app_factory=scripted_sender_factory({}),
    )
    federation.start()
    federation.sim.run(until=1.0)  # initial checkpoints settle
    return federation


def federation_build_ms() -> float:
    """``Federation(...)`` + ``start()`` on the 3x100 Table 3 topology."""
    topology, application, timers = table3_workload()
    return timed(lambda: Federation(topology, application, timers, seed=1).start()) * 1e3


# -------------------------------------------------------- protocol families


def family_msgs_per_s(protocol: str, inter: bool, budget_s: float) -> float:
    """Application messages per second through one family's agents.

    ``Node.send_app`` -> agent send path -> fabric -> node -> agent receive
    path -> ``deliver_app``, plus whatever control traffic the family adds
    per message (acks, forced checkpoints).  Intra-cluster messages stay
    inside cluster 0; inter-cluster ones go from cluster 0 to cluster 1.
    """
    federation = idle_federation(two_clusters(10), protocol)
    sim = federation.sim
    senders = federation.clusters[0].nodes
    targets = federation.clusters[1 if inter else 0].nodes
    pairs = [
        (src, targets[(i + 1) % len(targets)].id) for i, src in enumerate(senders)
    ]
    sent = 0
    start = time.perf_counter()
    while time.perf_counter() - start < budget_s:
        for _ in range(10):
            for src, dst in pairs:
                src.send_app(dst, 1024)
        sent += 10 * len(pairs)
        sim.run(until=sim.now + 1.0)
    return sent / (time.perf_counter() - start)


# -------------------------------------------------------------------- core


def hc3i_round_costs(rounds: int) -> dict:
    """Host µs per committed CLC, per GC round and per rollback, 2x100 nodes."""
    federation = idle_federation(table1_workload()[0], "hc3i")
    sim, protocol = federation.sim, federation.protocol
    state = protocol.cluster_states[0]

    def checkpoints(n: int) -> float:
        before = state.sn
        start = time.perf_counter()
        for _ in range(n):
            protocol.request_checkpoint(0)
            sim.run(until=sim.now + 1.0)
        seconds = time.perf_counter() - start
        if state.sn - before != n:
            raise RuntimeError(f"{n} CLCs requested, {state.sn - before} committed")
        return seconds

    clc_us = checkpoints(rounds) / rounds * 1e6

    gc_seconds = 0.0
    for _ in range(rounds):
        checkpoints(3)  # something to collect
        start = time.perf_counter()
        protocol.collect_garbage()
        sim.run(until=sim.now + 1.0)
        gc_seconds += time.perf_counter() - start

    rollback_seconds = 0.0
    failures = max(2, rounds // 4)
    for _ in range(failures):
        checkpoints(1)
        recovered = federation.recovery_signal(0)
        start = time.perf_counter()
        federation.inject_failure(NodeId(0, 1))
        sim.run(until=sim.now + 60.0)
        rollback_seconds += time.perf_counter() - start
        if not recovered.triggered:
            raise RuntimeError("cluster 0 did not recover from the injected failure")
    return {
        "core.clc_round_us": clc_us,
        "core.gc_round_us": gc_seconds / rounds * 1e6,
        "core.rollback_us": rollback_seconds / failures * 1e6,
    }


def recovery_line_us(calls: int, clusters: int = 8, clcs: int = 64) -> float:
    """``cascade_targets`` + ``compute_min_sns`` on a synthetic DDV history."""
    rng = random.Random(0)
    stored = []
    for c in range(clusters):
        ddv = [0] * clusters
        records = []
        for sn in range(1, clcs + 1):
            ddv[c] = sn
            other = rng.randrange(clusters)
            if other != c:
                ddv[other] = min(clcs, ddv[other] + rng.randrange(3))
            records.append((sn, tuple(ddv)))
        stored.append(records)
    current = [records[-1][1] for records in stored]

    def run() -> None:
        for i in range(calls):
            cascade_targets(stored, current, i % clusters)
            compute_min_sns(stored, current)

    return timed(run) / calls * 1e6


# ------------------------------------------------------------- experiments


def experiments_rungs(experiment: Experiment, tmp, n: int) -> dict:
    overrides = {"n": n}
    out = {}
    start = time.perf_counter()
    grid = experiment.build_grid(overrides)
    out["experiments.build_grid_us"] = (time.perf_counter() - start) / n * 1e6

    cache = ResultCache(tmp / "ladder-cache")
    value = experiment.point(grid[0])
    name = experiment.name
    out["experiments.cache_key_us"] = timed(lambda: [cache.key(name, p) for p in grid]) / n * 1e6
    out["experiments.cache_put_us"] = (
        timed(lambda: [cache.put(name, p, value) for p in grid]) / n * 1e6
    )
    out["experiments.cache_get_us"] = timed(lambda: [cache.get(name, p) for p in grid]) / n * 1e6
    out["experiments.cache_record_us"] = (
        timed(lambda: [cache.record(name, p, host="ladder") for p in grid]) / n * 1e6
    )

    # cold code hash: a fresh interpreter, because this one has cached it
    probe = (
        "import time; from repro.experiments.cache import code_version_hash; "
        "t = time.perf_counter(); code_version_hash(); print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(harness.SRC)),
        capture_output=True, text=True, check=True,
    )
    out["experiments.code_hash_ms"] = float(proc.stdout) * 1e3

    # the overhead is a difference of two like timings: alternate them and keep
    # the fastest of each, so a burst of interference cannot land on one side only
    bare = serial = float("inf")
    for _ in range(2):
        bare = min(bare, timed(lambda: [experiment.point(p) for p in grid]))
        serial = min(serial, timed(lambda: run_experiment(experiment, overrides)))
    inprocess = timed(lambda: run_experiment(experiment, overrides, backend="inprocess"))
    jobs2 = timed(lambda: run_experiment(experiment, overrides, jobs=2))
    out["experiments.runner_overhead_us"] = (serial - bare) / n * 1e6
    out["experiments.backend_inprocess_points_per_s"] = n / inprocess
    out["experiments.backend_local_jobs2_points_per_s"] = n / jobs2
    return out


# ------------------------------------------------------------------- serve


def serve_rungs(tmp, n: int) -> dict:
    seeds = range(1, 17)
    cache = warm_serve_cache(tmp / "ladder-serve", seeds)
    requests = [
        Request("GET", "/experiments/table1/points",
                {"scale": "tiny", "total_time": "600.0", "seed": str(seed)}, {})
        for seed in seeds
    ]
    grid_request = Request("GET", "/experiments/fig9/grid", {"scale": "tiny"}, {})
    out = {}

    async def handle_us(app: ServeApp, tier: str) -> float:
        for request in requests:  # first touch fills whatever tier there is
            await app.handle(request)
        start = time.perf_counter()
        for i in range(n):
            response = await app.handle(requests[i % len(requests)])
            if response.headers["X-Repro-Source"] != tier:
                raise RuntimeError(f"expected tier {tier}, got {response.headers}")
        return (time.perf_counter() - start) / n * 1e6

    async def grid_ms(app: ServeApp) -> float:
        rounds = max(1, n // 20)
        start = time.perf_counter()
        for _ in range(rounds):
            await app.handle(grid_request)
        return (time.perf_counter() - start) / rounds * 1e3

    hot_app = ServeApp(cache=cache, hot_mb=16.0)
    disk_app = ServeApp(cache=cache, hot_mb=0.0)  # no hot tier: every read is a disk read
    try:
        out["serve.handle_hot_us"] = asyncio.run(handle_us(hot_app, "hot"))
        out["serve.handle_disk_us"] = asyncio.run(handle_us(disk_app, "disk"))
        out["serve.grid_route_ms"] = asyncio.run(grid_ms(hot_app))

        with start_in_thread(hot_app) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            path = "/experiments/table1/points?scale=tiny&total_time=600.0&seed=1"
            latencies = []
            for _ in range(n):
                start = time.perf_counter()
                conn.request("GET", path)
                conn.getresponse().read()
                latencies.append(time.perf_counter() - start)
            conn.close()
        client_p50_us = statistics.median(latencies) * 1e6
        out["serve.httpd_overhead_us"] = client_p50_us - out["serve.handle_hot_us"]
    finally:
        disk_app.close()

    tier = HotTier()
    generation = ("code", 0)
    payload = b"x" * 256
    keys = [f"{i:064x}" for i in range(n)]
    out["serve.hot_put_us"] = timed(lambda: [tier.put(k, payload, generation) for k in keys]) / n * 1e6
    out["serve.hot_get_us"] = timed(lambda: [tier.get(k, generation) for k in keys]) / n * 1e6
    return out


# ------------------------------------------------------------------ golden


def golden_mismatches() -> int:
    """Experiments whose dispatch digest differs from ``tests/golden`` (0 = the pinned simulator).

    Must run before this file registers its own bench-local experiment.
    """
    golden = json.loads(harness.GOLDEN_PATH.read_text())
    measured = all_experiment_digests()
    names = set(golden) | set(measured)
    return sum(1 for name in names if golden.get(name) != measured.get(name))


# -------------------------------------------------------------------- main


def one_pass(experiment: Experiment, tmp, scale: float, budget_s: float, rounds: int) -> dict:
    """Every timed rung once."""

    def n(full: int) -> int:
        return max(20, int(full * scale))

    out = {
        "sim.kernel_events_per_s": kernel_events_per_s(n(200_000)),
        "sim.process_resumes_per_s": process_resumes_per_s(n(20_000)),
        "sim.timer_firings_per_s": timer_firings_per_s(n(500)),
        "network.fabric_msgs_per_s": fabric_msgs_per_s(n(40_000)),
        "cluster.federation_build_ms": federation_build_ms(),
        "core.recovery_line_us": recovery_line_us(n(100)),
    }
    for package, protocol in FAMILIES:
        out[f"{package}.{protocol}.intra_msgs_per_s"] = family_msgs_per_s(protocol, False, budget_s)
        out[f"{package}.{protocol}.inter_msgs_per_s"] = family_msgs_per_s(protocol, True, budget_s)
    out.update(hc3i_round_costs(rounds))
    out.update(experiments_rungs(experiment, tmp, n(400)))
    out.update(serve_rungs(tmp, n(1000)))
    return out


def measure(smoke: bool) -> dict:
    """Each rung is the median of its value over the passes; ratios come from the medians."""
    out = {"golden_mismatches": golden_mismatches()}
    experiment = sweep_experiment()
    tmp = harness.OUT_DIR / "tmp" / f"ladder-{os.getpid()}"
    passes = []
    try:
        for index in range(1 if smoke else 3):
            pass_tmp = tmp / str(index)
            pass_tmp.mkdir(parents=True)
            if smoke:
                passes.append(one_pass(experiment, pass_tmp, 0.05, 0.02, 4))
            else:
                passes.append(one_pass(experiment, pass_tmp, 1.0, 0.1, 12))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name in passes[0]:
        out[name] = statistics.median(values[name] for values in passes)
    out["network.fabric_vs_kernel"] = (
        out["network.fabric_msgs_per_s"] / out["sim.kernel_events_per_s"]
    )
    out["core.hc3i.vs_fabric"] = (
        out["core.hc3i.intra_msgs_per_s"] / out["network.fabric_msgs_per_s"]
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.smoke)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

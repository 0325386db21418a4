"""Simulator scalability: cost of growing the federation.

Not a paper experiment -- it characterizes the *reproduction substrate*
itself, so users know what problem sizes are practical: simulated events
and messages as the federation grows in nodes and clusters (protocol
control traffic grows with both: the 2PC is linear in cluster size, the
CIC layer in cluster count).

Every column is a count, so a cached row is reproducible on any host.
Host speed (events per wall-clock second) is measured by ``bench/``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.federation import Federation
from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.timers import MINUTE, TimersConfig
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import Experiment, register
from repro.network.topology import ClusterSpec, Topology

__all__ = ["EXPERIMENT"]

DEFAULT_SHAPES = [(2, 10), (2, 50), (2, 100), (4, 50), (8, 25), (16, 12)]


def _uniform_workload(n_clusters: int, total_time: float) -> ApplicationConfig:
    p_inter = 0.05
    specs = []
    for c in range(n_clusters):
        probs = [p_inter / max(1, n_clusters - 1)] * n_clusters
        probs[c] = 1.0 - p_inter
        specs.append(ClusterAppSpec(mean_compute=60.0, send_probabilities=probs))
    return ApplicationConfig(clusters=specs, total_time=total_time)


def _grid(
    shapes: Optional[Sequence[tuple]] = None,
    total_time: float = 1800.0,
    seed: int = 42,
) -> list:
    return [
        {
            "n_clusters": n_clusters,
            "nodes": nodes,
            "total_time": total_time,
            "seed": seed,
        }
        for n_clusters, nodes in (shapes or DEFAULT_SHAPES)
    ]


def _point(params: dict) -> dict:
    n_clusters = params["n_clusters"]
    nodes = params["nodes"]
    topology = Topology(
        clusters=[ClusterSpec(f"c{i}", nodes) for i in range(n_clusters)]
    )
    application = _uniform_workload(n_clusters, params["total_time"])
    timers = TimersConfig(clc_periods=[5 * MINUTE] * n_clusters)
    fed = Federation(topology, application, timers, seed=params["seed"])
    results = fed.run()
    return {
        "total_nodes": topology.total_nodes,
        "events": results.events,
        "app_msgs": sum(results.messages.values()),
        "protocol_msgs": results.protocol_messages,
    }


def _reduce(grid: list, points: list) -> ExperimentResult:
    rows = [
        (
            f"{params['n_clusters']}x{params['nodes']}",
            point["total_nodes"],
            point["events"],
            point["app_msgs"],
            point["protocol_msgs"],
        )
        for params, point in zip(grid, points)
    ]
    total_time = grid[0]["total_time"]
    return ExperimentResult(
        name="Scalability -- simulator cost vs federation shape",
        description=(
            f"{total_time:g}s of simulated time; 5-minute CLC timers; "
            "5% inter-cluster traffic spread uniformly."
        ),
        headers=["shape", "nodes", "events", "app msgs", "protocol msgs"],
        rows=rows,
    )


EXPERIMENT = register(
    Experiment(
        name="scaling",
        title="Scalability -- simulator cost vs federation shape",
        artifact="substrate",
        grid=_grid,
        point=_point,
        reduce=_reduce,
        scaled=False,
    )
)

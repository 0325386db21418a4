"""Figure 8: storing more CLCs in cluster 1 does not disturb cluster 0.

Setup (§5.2): cluster 0's CLC timer fixed at 30 minutes, cluster 1's timer
swept from 15 to 60 minutes.  Paper claim: "cluster 0 ... do[es] not store
more CLCs even if cluster 1 timer is set to 15 minutes.  This is thanks to
the low number of messages from cluster 1 to cluster 0" -- the cluster 0
totals stay flat while cluster 1's totals fall with its timer.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.app.workloads import TOTAL_TIME, table1_workload
from repro.config.timers import MINUTE
from repro.experiments.common import ExperimentResult, run_federation
from repro.experiments.registry import Experiment, register

__all__ = ["DEFAULT_C1_DELAYS_MIN", "EXPERIMENT"]

DEFAULT_C1_DELAYS_MIN = [15, 20, 25, 30, 40, 50, 60]


def _grid(
    delays_min: Optional[Sequence[float]] = None,
    cluster0_delay_min: float = 30.0,
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    seed: int = 42,
    protocol: str = "hc3i",
) -> list:
    return [
        {
            "delay_min": delay,
            "cluster0_delay_min": cluster0_delay_min,
            "nodes": nodes,
            "total_time": total_time,
            "seed": seed,
            "protocol": protocol,
        }
        for delay in (delays_min or DEFAULT_C1_DELAYS_MIN)
    ]


def _point(params: dict) -> dict:
    topology, application, timers = table1_workload(
        nodes=params["nodes"],
        total_time=params["total_time"],
        clc_period_0=params["cluster0_delay_min"] * MINUTE,
        clc_period_1=params["delay_min"] * MINUTE,
    )
    _fed, results = run_federation(
        topology,
        application,
        timers,
        protocol=params["protocol"],
        seed=params["seed"],
    )
    return {"c0": results.clc_counts(0), "c1": results.clc_counts(1)}


def _reduce(grid: list, points: list) -> ExperimentResult:
    series: dict = {"c0 total": [], "c1 total": [], "c1 forced": []}
    for point in points:
        series["c0 total"].append(point["c0"]["total"])
        series["c1 total"].append(point["c1"]["total"])
        series["c1 forced"].append(point["c1"]["forced"])
    return ExperimentResult(
        name="Figure 8 -- Impact of the number of CLCs in cluster 1",
        description=(
            "CLC counts vs cluster 1's timer (cluster 0 fixed at "
            f"{grid[0]['cluster0_delay_min']:g} min)."
        ),
        x_label="c1 delay (min)",
        xs=[params["delay_min"] for params in grid],
        series=series,
        paper={
            "c0_total": "flat (~insensitive to cluster 1's timer)",
            "c1_total": "decreasing with the timer",
        },
    )


EXPERIMENT = register(
    Experiment(
        name="fig8",
        title="Figure 8 -- cluster 1 timer sweep (§5.2)",
        artifact="Figure 8",
        grid=_grid,
        point=_point,
        reduce=_reduce,
    )
)

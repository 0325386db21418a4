"""Figures 6 & 7: influence of the delay between unforced CLCs in cluster 0.

Setup (§5.2): the Table-1 workload; cluster 1's CLC timer "set to
infinite"; cluster 0's timer swept along the x axis (minutes).

Paper shapes to reproduce:

* **Figure 6** (cluster 0): unforced CLCs fall roughly as
  ``total_time / delay`` (slightly fewer, because the timer resets whenever
  a forced CLC commits); forced CLCs stay *constant* (~8) -- they are
  caused by the few (11) messages coming from cluster 1, independently of
  the timer.
* **Figure 7** (cluster 1): zero unforced CLCs (infinite timer); forced
  CLCs *proportional to the number of CLCs stored in cluster 0* "because
  numerous messages come from cluster 0" -- each cluster-0 CLC bumps the
  SN, and the next of the ~145 messages forces a CLC in cluster 1.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.app.workloads import TOTAL_TIME, table1_workload
from repro.config.timers import MINUTE
from repro.experiments.common import ExperimentResult, run_federation
from repro.experiments.registry import Experiment, register

__all__ = ["DEFAULT_DELAYS_MIN", "EXPERIMENT"]

DEFAULT_DELAYS_MIN = [5, 10, 15, 20, 30, 45, 60, 90, 120]


def _grid(
    delays_min: Optional[Sequence[float]] = None,
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    seed: int = 42,
    protocol: str = "hc3i",
) -> list:
    return [
        {
            "delay_min": delay,
            "nodes": nodes,
            "total_time": total_time,
            "seed": seed,
            "protocol": protocol,
        }
        for delay in (delays_min or DEFAULT_DELAYS_MIN)
    ]


def _point(params: dict) -> dict:
    """One sweep point (module-level so it is picklable for processes)."""
    topology, application, timers = table1_workload(
        nodes=params["nodes"],
        total_time=params["total_time"],
        clc_period_0=params["delay_min"] * MINUTE,
        clc_period_1=None,
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
    series: dict = {
        "c0 unforced": [],
        "c0 forced": [],
        "c1 unforced": [],
        "c1 forced": [],
    }
    for point in points:
        series["c0 unforced"].append(point["c0"]["unforced"])
        series["c0 forced"].append(point["c0"]["forced"])
        series["c1 unforced"].append(point["c1"]["unforced"])
        series["c1 forced"].append(point["c1"]["forced"])
    return ExperimentResult(
        name="Figures 6 & 7 -- Interval between CLCs influence",
        description=(
            "Committed CLC counts vs the delay between unforced CLCs in "
            "cluster 0 (cluster 1 timer infinite)."
        ),
        x_label="delay (min)",
        xs=[params["delay_min"] for params in grid],
        series=series,
        paper={
            "fig6_forced_c0": "constant (~8, caused by the 11 msgs 1->0)",
            "fig6_unforced_c0": "~ total_time/delay, decreasing",
            "fig7_unforced_c1": 0,
            "fig7_forced_c1": "proportional to cluster-0 CLC count",
        },
    )


EXPERIMENT = register(
    Experiment(
        name="fig6-fig7",
        title="Figures 6 & 7 -- CLC interval sweep in cluster 0 (§5.2)",
        artifact="Figures 6-7",
        grid=_grid,
        point=_point,
        reduce=_reduce,
    )
)

"""Figure 9: communication patterns -- increasing the 1->0 message flow.

Setup (§5.3): both CLC timers at 30 minutes; the number of messages from
cluster 1 to cluster 0 swept along the x axis (10..110).  Paper claim:
"The number of forced CLCs increases fast with the number of messages from
cluster 1 to cluster 0.  If the two clusters communicate a lot in both
ways, SNs will grow very fast and most of the messages will induce a forced
CLC.  The overhead of our protocol will not be good in that case."
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.app.workloads import TOTAL_TIME, fig9_workload
from repro.config.timers import MINUTE
from repro.experiments.common import ExperimentResult, run_federation
from repro.experiments.registry import Experiment, register

__all__ = ["DEFAULT_MESSAGE_COUNTS", "EXPERIMENT"]

DEFAULT_MESSAGE_COUNTS = [10, 30, 50, 70, 90, 110]


def _grid(
    message_counts: Optional[Sequence[int]] = None,
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    clc_period_min: float = 30.0,
    seed: int = 42,
    protocol: str = "hc3i",
) -> list:
    return [
        {
            "messages_1_to_0": target,
            "nodes": nodes,
            "total_time": total_time,
            "clc_period_min": clc_period_min,
            "seed": seed,
            "protocol": protocol,
        }
        for target in (message_counts or DEFAULT_MESSAGE_COUNTS)
    ]


def _point(params: dict) -> dict:
    topology, application, timers = fig9_workload(
        messages_1_to_0=params["messages_1_to_0"],
        nodes=params["nodes"],
        total_time=params["total_time"],
        clc_period=params["clc_period_min"] * MINUTE,
    )
    _fed, results = run_federation(
        topology,
        application,
        timers,
        protocol=params["protocol"],
        seed=params["seed"],
    )
    return {
        "c0": results.clc_counts(0),
        "c1": results.clc_counts(1),
        "msgs_1_to_0": results.app_messages(1, 0),
    }


def _reduce(grid: list, points: list) -> ExperimentResult:
    series: dict = {
        "c0 total": [],
        "c0 forced": [],
        "c1 total": [],
        "c1 forced": [],
        "msgs 1->0": [],
    }
    for point in points:
        series["c0 total"].append(point["c0"]["total"])
        series["c0 forced"].append(point["c0"]["forced"])
        series["c1 total"].append(point["c1"]["total"])
        series["c1 forced"].append(point["c1"]["forced"])
        series["msgs 1->0"].append(point["msgs_1_to_0"])
    return ExperimentResult(
        name="Figure 9 -- Increasing communication from cluster 1 to cluster 0",
        description=(
            "Committed CLCs vs the number of 1->0 messages (both CLC timers "
            f"at {grid[0]['clc_period_min']:g} min)."
        ),
        x_label="target msgs 1->0",
        xs=[params["messages_1_to_0"] for params in grid],
        series=series,
        paper={
            "c0_forced": "grows fast with the 1->0 message count",
            "c1_forced": "grows as well (bidirectional SN growth)",
        },
    )


EXPERIMENT = register(
    Experiment(
        name="fig9",
        title="Figure 9 -- communication pattern sweep (§5.3)",
        artifact="Figure 9",
        grid=_grid,
        point=_point,
        reduce=_reduce,
    )
)

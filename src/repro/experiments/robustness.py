"""Multi-seed robustness of the paper's headline results.

The paper reports single runs of a stochastic simulator.  This experiment
repeats the key measurements across seeds and reports mean +/- standard
deviation, verifying that the qualitative claims are properties of the
protocol and not of one lucky random stream:

* Table 1's message-count structure (intra >> inter, 0->1 >> 1->0),
* Figure 6's constant forced-CLC count in cluster 0,
* Figure 7's zero unforced CLCs in cluster 1.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

from repro.app.workloads import TOTAL_TIME, table1_workload
from repro.config.timers import MINUTE
from repro.experiments.common import ExperimentResult, run_federation
from repro.experiments.registry import Experiment, derive_seed, register

__all__ = ["EXPERIMENT"]

_METRICS = (
    "msgs 0->0",
    "msgs 1->1",
    "msgs 0->1",
    "msgs 1->0",
    "c0 unforced",
    "c0 forced",
    "c1 unforced",
    "c1 forced",
)


def _grid(
    seeds: Optional[Sequence[int]] = None,
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    clc_period_0: float = 30 * MINUTE,
    seed: Optional[int] = None,
    repetitions: int = 10,
) -> list:
    """Ten historical seeds by default; a root ``seed`` derives fresh ones."""
    if not seeds:
        if seed is None:
            seeds = range(1, repetitions + 1)
        else:
            seeds = [derive_seed(seed, "robustness", i) for i in range(repetitions)]
    return [
        {
            "seed": s,
            "nodes": nodes,
            "total_time": total_time,
            "clc_period_0": clc_period_0,
        }
        for s in seeds
    ]


def _point(params: dict) -> dict:
    topology, application, timers = table1_workload(
        nodes=params["nodes"],
        total_time=params["total_time"],
        clc_period_0=params["clc_period_0"],
        clc_period_1=None,
    )
    _fed, results = run_federation(
        topology, application, timers, seed=params["seed"]
    )
    c0 = results.clc_counts(0)
    c1 = results.clc_counts(1)
    return {
        "msgs 0->0": results.app_messages(0, 0),
        "msgs 1->1": results.app_messages(1, 1),
        "msgs 0->1": results.app_messages(0, 1),
        "msgs 1->0": results.app_messages(1, 0),
        "c0 unforced": c0["unforced"],
        "c0 forced": c0["forced"],
        "c1 unforced": c1["unforced"],
        "c1 forced": c1["forced"],
    }


def _reduce(grid: list, points: list) -> ExperimentResult:
    seeds = [params["seed"] for params in grid]
    rows = []
    for name in _METRICS:
        values = [point[name] for point in points]
        rows.append(
            (
                name,
                round(statistics.fmean(values), 1),
                round(statistics.stdev(values), 2) if len(values) > 1 else 0.0,
                min(values),
                max(values),
            )
        )
    clc_period_0 = grid[0]["clc_period_0"]
    exp = ExperimentResult(
        name="Robustness -- headline results across seeds",
        description=(
            f"{len(seeds)} independent seeds of the Table 1 / Fig. 6-7 "
            "configuration (cluster-0 timer "
            f"{clc_period_0 / MINUTE:g} min, cluster-1 timer infinite)."
        ),
        headers=["metric", "mean", "std", "min", "max"],
        rows=rows,
        paper={
            "table1": "2920 / 2497 / 145 / 11",
            "fig6_forced": "~8, constant",
            "fig7_unforced": 0,
        },
    )
    exp.notes.append(f"seeds: {seeds}")
    return exp


EXPERIMENT = register(
    Experiment(
        name="robustness",
        title="Robustness -- headline results across independent seeds",
        artifact="Table 1 / Figures 6-7",
        grid=_grid,
        point=_point,
        reduce=_reduce,
    )
)

"""Availability under increasing failure rates (HC3I vs baselines).

The paper evaluates overhead in failure-free runs and argues about
rollback scope qualitatively.  This sweep quantifies the end-to-end
consequence: for a range of federation MTBFs, how much useful work
survives?

``goodput`` here is ``1 - lost_node_seconds / total_node_seconds``: the
fraction of computed node-time that was never rolled back.  HC3I's small
rollback scope (sender logs!) should keep goodput high where the global
and independent baselines degrade.

Goodput can go *negative*: when the failure inter-arrival time drops below
the typical rollback depth, the same wall-clock interval is rolled back
and re-executed repeatedly, so cumulative lost work exceeds the total
node-time budget -- utilization collapse, exactly what a checkpoint
interval mis-tuned against the MTBF looks like (§5.2's advice: set the
CLC timer "much smaller than the MTBF").
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.app.workloads import table1_workload
from repro.cluster.federation import Federation
from repro.config.timers import HOUR, MINUTE
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import Experiment, register
from repro.sim.trace import TraceLevel

__all__ = ["EXPERIMENT"]

DEFAULT_MTBFS = [4 * HOUR, 2 * HOUR, HOUR, HOUR / 2]
DEFAULT_PROTOCOLS = ("hc3i", "global-coordinated", "pessimistic-log")


def _grid(
    mtbfs: Optional[Sequence[float]] = None,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    nodes: int = 10,
    total_time: float = 8 * HOUR,
    clc_period: float = 20 * MINUTE,
    seed: int = 42,
) -> list:
    mtbfs = list(mtbfs or DEFAULT_MTBFS)
    return [
        {
            "protocol": protocol,
            "mtbf": mtbf,
            "nodes": nodes,
            "total_time": total_time,
            "clc_period": clc_period,
            "seed": seed,
        }
        for protocol in protocols
        for mtbf in mtbfs
    ]


def _point(params: dict) -> dict:
    topology, application, timers = table1_workload(
        nodes=params["nodes"],
        total_time=params["total_time"],
        clc_period_0=params["clc_period"],
        clc_period_1=params["clc_period"],
        messages_1_to_0=103,
    )
    topology.mtbf = params["mtbf"]
    fed = Federation(
        topology,
        application,
        timers,
        protocol=params["protocol"],
        seed=params["seed"],
        trace_level=TraceLevel.PROTOCOL,
    )
    results = fed.run()
    lost = results.stats.get("rollback/lost_work", {})
    return {
        "failures": results.counter("failures/injected"),
        "lost_total": lost["total"] if isinstance(lost, dict) else 0.0,
        "node_seconds": topology.total_nodes * params["total_time"],
    }


def _reduce(grid: list, points: list) -> ExperimentResult:
    rows = []
    for params, point in zip(grid, points):
        goodput = 1.0 - point["lost_total"] / point["node_seconds"]
        rows.append(
            (
                params["protocol"],
                f"{params['mtbf'] / HOUR:g}h",
                point["failures"],
                round(point["lost_total"], 0),
                round(goodput, 4),
            )
        )
    nodes = grid[0]["nodes"]
    total_time = grid[0]["total_time"]
    return ExperimentResult(
        name="MTBF sweep -- surviving work under increasing failure rates",
        description=(
            "Goodput = 1 - lost node-seconds / total node-seconds; "
            f"{nodes}-node clusters, {total_time / HOUR:g}h application, "
            "MTBF-driven single faults."
        ),
        headers=["protocol", "MTBF", "failures", "lost node-s", "goodput"],
        rows=rows,
        paper={
            "expectation": "HC3I's bounded rollback scope keeps goodput "
            "above the whole-federation rollback of global coordination"
        },
    )


EXPERIMENT = register(
    Experiment(
        name="mtbf",
        title="MTBF sweep -- goodput vs failure rate, HC3I vs baselines",
        artifact="§6 extension",
        grid=_grid,
        point=_point,
        reduce=_reduce,
        scaled=False,
    )
)

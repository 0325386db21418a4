"""Table 1: application message counts for the two-cluster workload.

Paper values (§5.2, 2 clusters x 100 nodes, 10-hour application):

===================  =====
flow                 count
===================  =====
cluster 0 -> 0        2920
cluster 1 -> 1        2497
cluster 0 -> 1         145
cluster 1 -> 0          11
===================  =====
"""

from __future__ import annotations

from repro.app.workloads import TOTAL_TIME, table1_workload
from repro.experiments.common import ExperimentResult, run_federation
from repro.experiments.registry import Experiment, register

__all__ = ["EXPERIMENT", "PAPER_TABLE1"]

PAPER_TABLE1 = {(0, 0): 2920, (1, 1): 2497, (0, 1): 145, (1, 0): 11}

_ORDER = [(0, 0), (1, 1), (0, 1), (1, 0)]


def _grid(
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    seed: int = 42,
) -> list:
    return [{"nodes": nodes, "total_time": total_time, "seed": seed}]


def _point(params: dict) -> dict:
    topology, application, timers = table1_workload(
        nodes=params["nodes"], total_time=params["total_time"]
    )
    _fed, results = run_federation(
        topology, application, timers, seed=params["seed"]
    )
    return {
        "messages": {f"{s}->{d}": results.app_messages(s, d) for s, d in _ORDER}
    }


def _reduce(grid: list, points: list) -> ExperimentResult:
    params, point = grid[0], points[0]
    scale = (params["nodes"] * params["total_time"]) / (100 * TOTAL_TIME)
    rows = []
    for src, dst in _ORDER:
        measured = point["messages"][f"{src}->{dst}"]
        expected = PAPER_TABLE1[(src, dst)] * scale
        rows.append(
            (f"Cluster {src}", f"Cluster {dst}", measured, round(expected, 1))
        )
    exp = ExperimentResult(
        name="Table 1 -- Application messages",
        description=(
            "Message counts per cluster pair for the calibrated two-cluster "
            "code-coupling workload (simulation on cluster 0, trace "
            "processing on cluster 1)."
        ),
        headers=["Sender's Cluster", "Receiver's Cluster", "Messages", "Paper (scaled)"],
        rows=rows,
        paper={f"{s}->{d}": c for (s, d), c in PAPER_TABLE1.items()},
    )
    if scale != 1.0:
        exp.notes.append(
            f"run scaled by {scale:.4g} (nodes={params['nodes']}, "
            f"total_time={params['total_time']})"
        )
    return exp


EXPERIMENT = register(
    Experiment(
        name="table1",
        title="Table 1 -- application message counts (§5.2)",
        artifact="Table 1",
        grid=_grid,
        point=_point,
        reduce=_reduce,
    )
)

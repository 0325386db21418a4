"""Tables 2 & 3 and the §5.4 no-GC sizing claims.

* **Table 2** -- the Figure 9 scenario at 103 messages 1->0, garbage
  collection every 2 hours: per collection, stored CLCs just before and
  just after.  Paper rows: before 10-18, after 2.
* **no-GC reference** -- same run without GC: "63 CLCs are stored in each
  cluster.  It means that each node in the federation stores 126 local
  states (its own 63 local states and the ones of one of its neighbor)".
  "The maximum number of logged messages during the execution in the
  sample above is 4 in both clusters."
* **Table 3** -- three clusters (cluster 2 clones cluster 1), ~200
  messages leaving/arriving per cluster.  Paper: before 30-80, after 2.
"""

from __future__ import annotations

from repro.app.workloads import TOTAL_TIME, table2_workload, table3_workload
from repro.config.timers import HOUR
from repro.experiments.common import ExperimentResult, run_federation
from repro.experiments.registry import Experiment, register

__all__ = ["NO_GC", "TABLE2", "TABLE3"]


def _gc_table(gc_series: list) -> tuple:
    """Build (headers, rows) like the paper's Tables 2/3 layout."""
    n_clusters = len(gc_series)
    headers = ["GC #"]
    for c in range(n_clusters):
        headers += [f"Cluster {c} Before", f"Cluster {c} After"]
    table = []
    rounds = min((len(s) for s in gc_series), default=0)
    for k in range(rounds):
        row = [k + 1]
        for c in range(n_clusters):
            _t, before, after = gc_series[c][k]
            row += [before, after]
        table.append(row)
    return headers, table


def _table2_grid(
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    gc_period: float = 2 * HOUR,
    seed: int = 42,
    gc_mode: str = "centralized",
) -> list:
    return [
        {
            "nodes": nodes,
            "total_time": total_time,
            "gc_period": gc_period,
            "seed": seed,
            "gc_mode": gc_mode,
        }
    ]


def _table2_point(params: dict) -> dict:
    topology, application, timers = table2_workload(
        nodes=params["nodes"],
        total_time=params["total_time"],
        gc_period=params["gc_period"],
    )
    _fed, results = run_federation(
        topology,
        application,
        timers,
        seed=params["seed"],
        protocol_options={"gc_mode": params["gc_mode"]},
    )
    needed = []
    for c in range(2):
        series = results.stats.get(f"gc/c{c}/log_needed", [])
        needed.append(max((int(v) for _t, v in series), default=0))
    return {
        "gc_series": [list(results.gc_series(c)) for c in range(2)],
        "log_needed": needed,
    }


def _table2_reduce(grid: list, points: list) -> ExperimentResult:
    point = points[0]
    headers, rows = _gc_table(point["gc_series"])
    exp = ExperimentResult(
        name="Table 2 -- Number of stored CLCs (2 clusters, GC every 2 h)",
        description=(
            "Stored CLCs just before and just after each garbage "
            "collection; Fig. 9 scenario with 103 messages 1->0."
        ),
        headers=headers,
        rows=rows,
        paper={"before": "10-18", "after": 2},
    )
    needed = point["log_needed"]
    exp.notes.append(
        f"max replay-relevant (needed) log entries at GC instants: "
        f"c0={needed[0]}, c1={needed[1]} (paper reports 4)"
    )
    return exp


def _no_gc_grid(
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    seed: int = 42,
) -> list:
    return [{"nodes": nodes, "total_time": total_time, "seed": seed}]


def _no_gc_point(params: dict) -> dict:
    topology, application, timers = table2_workload(
        nodes=params["nodes"], total_time=params["total_time"], gc_period=None
    )
    fed, results = run_federation(
        topology, application, timers, seed=params["seed"]
    )
    clusters = []
    for c in range(2):
        stored = results.stored_clcs(c)
        clusters.append(
            {
                "stored": stored,
                "states": fed.storage[c].states_held_by(0, stored),
                "max_log": fed.protocol.cluster_states[c].sent_log.max_entries,
            }
        )
    return {"clusters": clusters}


def _no_gc_reduce(grid: list, points: list) -> ExperimentResult:
    rows = [
        (f"Cluster {c}", info["stored"], info["states"], info["max_log"])
        for c, info in enumerate(points[0]["clusters"])
    ]
    return ExperimentResult(
        name="No-GC reference (§5.4 sizing)",
        description=(
            "Stored CLCs, local states per node (own + neighbour replica) "
            "and peak logged messages when garbage collection is disabled."
        ),
        headers=["Cluster", "Stored CLCs", "States per node", "Peak log entries"],
        rows=rows,
        paper={
            "stored_clcs": 63,
            "states_per_node": 126,
            "peak_log": "4 (paper counts only entries still needed)",
        },
    )


def _table3_grid(
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    gc_period: float = 2 * HOUR,
    seed: int = 42,
    inter_messages: int = 100,
    gc_mode: str = "centralized",
) -> list:
    return [
        {
            "nodes": nodes,
            "total_time": total_time,
            "gc_period": gc_period,
            "seed": seed,
            "inter_messages": inter_messages,
            "gc_mode": gc_mode,
        }
    ]


def _table3_point(params: dict) -> dict:
    topology, application, timers = table3_workload(
        nodes=params["nodes"],
        total_time=params["total_time"],
        gc_period=params["gc_period"],
        inter_messages=params["inter_messages"],
    )
    _fed, results = run_federation(
        topology,
        application,
        timers,
        seed=params["seed"],
        protocol_options={"gc_mode": params["gc_mode"]},
    )
    return {"gc_series": [list(results.gc_series(c)) for c in range(3)]}


def _table3_reduce(grid: list, points: list) -> ExperimentResult:
    headers, rows = _gc_table(points[0]["gc_series"])
    return ExperimentResult(
        name="Table 3 -- Number of stored CLCs (3 clusters, GC every 2 h)",
        description=(
            "Cluster 2 clones cluster 1; roughly 200 messages leave and "
            "arrive in each cluster over the run."
        ),
        headers=headers,
        rows=rows,
        paper={"before": "30-80", "after": 2},
    )


TABLE2 = register(
    Experiment(
        name="table2",
        title="Table 2 -- stored CLCs around each GC, 2 clusters (§5.4)",
        artifact="Table 2",
        grid=_table2_grid,
        point=_table2_point,
        reduce=_table2_reduce,
    )
)

NO_GC = register(
    Experiment(
        name="no-gc",
        title="No-GC reference -- §5.4 storage sizing",
        artifact="§5.4",
        grid=_no_gc_grid,
        point=_no_gc_point,
        reduce=_no_gc_reduce,
    )
)

TABLE3 = register(
    Experiment(
        name="table3",
        title="Table 3 -- stored CLCs around each GC, 3 clusters (§5.4)",
        artifact="Table 3",
        grid=_table3_grid,
        point=_table3_point,
        reduce=_table3_reduce,
    )
)

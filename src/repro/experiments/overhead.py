"""§5.2 headline: network traffic and storage cost induced by the protocol.

The paper argues the overhead is tunable: "If the frequency of unforced
CLCs is low in a cluster, the SNs will not grow too fast, so inter-cluster
messages from this cluster would have a low probability to force CLCs ...
If no CLC is initiated, the only protocol cost consists in logging
optimistically in volatile memory inter-cluster messages and transmitting
an integer (SN) with them."

This experiment decomposes the protocol's cost for a range of CLC timers,
from "never" (the paper's minimal-cost regime) to aggressive:

* piggyback bytes added to inter-cluster application messages,
* two-phase-commit control traffic (requests/acks/commits),
* stable-storage replica traffic,
* acknowledgement traffic,
* peak volatile log occupancy (bytes),
* peak checkpoint storage (bytes),

all relative to the pure application byte volume.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.app.workloads import TOTAL_TIME, table1_workload
from repro.config.timers import MINUTE
from repro.experiments.common import ExperimentResult, run_federation
from repro.experiments.registry import Experiment, register

__all__ = ["EXPERIMENT"]

_CONTROL_KINDS = ("clc_request", "clc_ack", "clc_commit", "clc_initiate")

DEFAULT_TIMERS_MIN = [None, 120, 60, 30, 10]


def _grid(
    timers_min: Optional[Sequence[Optional[float]]] = None,
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    seed: int = 42,
) -> list:
    return [
        {
            "timer_min": timer,
            "nodes": nodes,
            "total_time": total_time,
            "seed": seed,
        }
        for timer in (timers_min or DEFAULT_TIMERS_MIN)
    ]


def _point(params: dict) -> dict:
    timer = params["timer_min"]
    period = None if timer is None else timer * MINUTE
    topology, application, timers = table1_workload(
        nodes=params["nodes"],
        total_time=params["total_time"],
        clc_period_0=period,
        clc_period_1=period,
        messages_1_to_0=103,
    )
    fed, results = run_federation(
        topology, application, timers, seed=params["seed"]
    )

    def kind_bytes(kind: str) -> int:
        return results.counter(f"net/bytes/kind/{kind}")

    inter_msgs = results.app_messages(0, 1) + results.app_messages(1, 0)
    return {
        "app_bytes": results.counter("net/bytes/app"),
        "piggyback_bytes": inter_msgs * 12,  # SN (8) + epoch (4)
        "control_bytes": sum(kind_bytes(k) for k in _CONTROL_KINDS),
        "replica_bytes": kind_bytes("replica"),
        "ack_bytes": kind_bytes("inter_ack"),
        "log_peak_bytes": sum(
            fed.protocol.cluster_states[c].sent_log.max_entries
            * application.clusters[c].message_size
            for c in range(2)
        ),
        "stored_bytes": sum(
            fed.protocol.cluster_states[c].store.total_state_bytes()
            for c in range(2)
        ),
        "clcs": sum(results.clc_counts(c)["total"] for c in range(2)),
    }


def _reduce(grid: list, points: list) -> ExperimentResult:
    rows = []
    for params, point in zip(grid, points):
        timer = params["timer_min"]
        # Replica traffic dominates any byte ratio; report the *control*
        # overhead the paper reasons about separately from storage motion.
        # A run that sent no application byte has no ratio to report.
        control = point["piggyback_bytes"] + point["control_bytes"] + point["ack_bytes"]
        app = point["app_bytes"]
        overhead_pct = round(100.0 * control / app, 2) if app else "n/a"
        rows.append(
            (
                "off" if timer is None else f"{timer:g} min",
                point["clcs"],
                point["piggyback_bytes"],
                point["control_bytes"],
                point["ack_bytes"],
                point["replica_bytes"],
                point["log_peak_bytes"],
                point["stored_bytes"],
                overhead_pct,
            )
        )
    return ExperimentResult(
        name="§5.2 -- Network traffic and storage cost of the protocol",
        description=(
            "Cost decomposition vs the unforced-CLC timer (both clusters); "
            "'off' is the paper's minimal-cost regime where the only cost "
            "is sender-side logging plus one integer per inter-cluster "
            "message."
        ),
        headers=[
            "CLC timer",
            "CLCs",
            "piggyback B",
            "2PC B",
            "ack B",
            "replica B",
            "peak log B",
            "stored B",
            "ctl overhead %",
        ],
        rows=rows,
        paper={
            "claim": "with no CLCs the only cost is volatile logging + one "
            "integer per inter-cluster message"
        },
    )


EXPERIMENT = register(
    Experiment(
        name="overhead",
        title="§5.2 -- protocol traffic and storage cost decomposition",
        artifact="§5.2",
        grid=_grid,
        point=_point,
        reduce=_reduce,
    )
)

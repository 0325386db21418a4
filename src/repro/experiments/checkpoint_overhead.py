"""Cost of simulator checkpointing vs the snapshot interval.

The sweep engine can checkpoint a running simulation so a preempted
worker resumes instead of recomputing (:mod:`repro.experiments.checkpoint`).
That resilience is not free: each snapshot pickles the entire federation
-- event queue, protocol state, logs, RNG streams -- and the natural
question is how the cost scales with the snapshot interval.

This experiment runs the Table 1 workload sliced at a range of intervals
and reports, per interval, how many snapshots were taken, their sizes,
and how many kernel events each one covers.  Serialization wall time is
proportional to blob size (pickling is linear), so
bytes-per-simulated-hour is the portable cost metric -- wall-clock
numbers would vary by host and poison the byte-identical result
contract the sweep cache and cross-backend suites rely on.  One caveat:
snapshot counts and event columns are exact everywhere, but the byte
sizes themselves can drift by a few bytes between *interpreter
instances* (hash randomization reorders set iteration, which perturbs
the pickle memo layout), so the cross-backend suite compares only the
interval/events/snapshots columns for this experiment.

The control row (``interval_frac=None``) runs unsliced and proves the
slicing itself is free: its dispatch stream is identical to every sliced
row's (same seed, same events -- the golden digest covers all rows).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.app.workloads import TOTAL_TIME, table1_workload
from repro.cluster.federation import Federation
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import Experiment, register
from repro.sim import snapshot

__all__ = ["EXPERIMENT"]

#: snapshot interval as a fraction of the run's horizon (None = no snapshots)
DEFAULT_INTERVAL_FRACS = [None, 0.5, 0.25, 0.1, 0.05]


def _grid(
    interval_fracs: Optional[Sequence[Optional[float]]] = None,
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    seed: int = 42,
) -> list:
    return [
        {
            "interval_frac": frac,
            "nodes": nodes,
            "total_time": total_time,
            "seed": seed,
        }
        for frac in (interval_fracs or DEFAULT_INTERVAL_FRACS)
    ]


def _point(params: dict) -> dict:
    topology, application, timers = table1_workload(
        nodes=params["nodes"],
        total_time=params["total_time"],
        messages_1_to_0=103,
    )
    fed = Federation(
        topology, application, timers, protocol="hc3i", seed=params["seed"]
    )
    fed.start()
    horizon = application.total_time
    frac = params["interval_frac"]
    sim = fed.sim
    sizes: list = []
    events_between: list = []
    boundary = sim.processed
    # the slicing loop sweeps run under --checkpoint-every; a snapshot is
    # sized here where CheckpointConfig.drive writes it to disk
    for _ in snapshot.run_sliced(sim, horizon, None if frac is None else frac * horizon):
        sizes.append(len(snapshot.dumps(fed)))
        events_between.append(sim.processed - boundary)
        boundary = sim.processed
    return {
        "events": sim.processed,
        "snapshots": len(sizes),
        "total_bytes": sum(sizes),
        "max_bytes": max(sizes, default=0),
        "mean_events_between": (
            round(sum(events_between) / len(events_between), 2)
            if events_between
            else None
        ),
    }


def _reduce(grid: list, points: list) -> ExperimentResult:
    rows = []
    for params, point in zip(grid, points):
        frac = params["interval_frac"]
        sim_hours = params["total_time"] / 3600.0
        rows.append(
            (
                "off" if frac is None else f"{frac:g}",
                point["events"],
                point["snapshots"],
                point["total_bytes"],
                point["max_bytes"],
                point["mean_events_between"] if point["snapshots"] else "-",
                round(point["total_bytes"] / sim_hours, 1),
            )
        )
    return ExperimentResult(
        name="Checkpoint overhead -- snapshot cost vs interval",
        description=(
            "Table 1 workload sliced at a range of snapshot intervals "
            "(fractions of the horizon).  Every row dispatches the same "
            "events -- slicing the run is free -- so the cost of resilience "
            "is purely the serialized bytes, linear in snapshot count."
        ),
        headers=[
            "interval",
            "events",
            "snapshots",
            "total B",
            "max B",
            "events/snap",
            "B per sim-hour",
        ],
        rows=rows,
        paper={
            "claim": "checkpointing cost is tunable via the interval; the "
            "simulation itself is unperturbed (identical dispatch stream)"
        },
    )


EXPERIMENT = register(
    Experiment(
        name="checkpoint_overhead",
        title="Snapshot cost vs checkpoint interval",
        artifact="engineering",
        grid=_grid,
        point=_point,
        reduce=_reduce,
    )
)

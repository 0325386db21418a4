"""The Figure 5 worked example as an executable scenario.

Three clusters; deterministic (scripted) sends; a fault in the middle
cluster.  The script mirrors the paper's §4 narrative (clusters renumbered
0..2 for code, paper uses 1..3):

====  =====  ============================  ===============================
time  event  paper                         expected protocol reaction
====  =====  ============================  ===============================
0     init   first CLC everywhere          SN=1 in every cluster
10    m1     C0 -> C1 (SN 1)               forced CLC in C1 (SN 2), ack 2
20    m2     C0 -> C1 (SN 1)               no forced CLC, ack 3
30    clc    unforced CLC in C1            C1 SN 3
40    m3     C1 -> C2 (SN 3)               forced CLC in C2 (SN 2), ack 2
50    clc    unforced CLC in C1            C1 SN 4
60    m4     C1 -> C2 (SN 4)               forced CLC in C2 (SN 3), ack 3
70    m5     C2 -> C0 (SN 3)               forced CLC in C0 (SN 2), ack 2
80    fault  node crash in C1              C1 rolls to SN 4, alert(4);
                                           C2 rolls to SN 3 (m4's forced
                                           CLC), alert(3); C0 rolls to SN 2
                                           (m5's forced CLC), alert(2);
                                           nobody rolls further
====  =====  ============================  ===============================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.app.process import scripted_sender_factory
from repro.cluster.federation import Federation
from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.timers import TimersConfig
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import Experiment, register
from repro.network.message import NodeId
from repro.network.topology import ClusterSpec, Topology
from repro.sim.trace import TraceLevel

__all__ = ["Figure5Outcome", "figure5_scenario"]


@dataclass
class Figure5Outcome:
    """Everything the worked example lets us assert on."""

    pre_fault_sns: list = field(default_factory=list)
    pre_fault_ddvs: list = field(default_factory=list)
    pre_fault_forced: list = field(default_factory=list)
    acks: dict = field(default_factory=dict)          # label -> ack SN
    post_fault_sns: list = field(default_factory=list)
    rollbacks: list = field(default_factory=list)     # (cluster, to_sn) in order
    alerts: list = field(default_factory=list)        # (faulty, sn) in order
    replays: int = 0
    federation: Federation = None


def figure5_scenario(
    seed: int = 0,
    nodes_per_cluster: int = 2,
    protocol_options: dict | None = None,
) -> Figure5Outcome:
    """Run the worked example; returns the recorded outcome.

    ``protocol_options`` lets the same scenario run under variants (e.g.
    ``{"mode": "ddv"}``): for this communication pattern the rollback
    cascade is identical, only the recorded DDVs grow extra entries.
    """
    topology = Topology(
        clusters=[ClusterSpec(f"c{i}", nodes_per_cluster) for i in range(3)],
    )
    # The application model is irrelevant here (scripted senders), but the
    # config must exist and bound the run time.
    application = ApplicationConfig(
        clusters=[ClusterAppSpec(mean_compute=1e9) for _ in range(3)],
        total_time=200.0,
    )
    timers = TimersConfig(
        clc_periods=[None, None, None],
        failure_detection_delay=1.0,
        checkpoint_restore_time=0.5,
        node_repair_time=2.0,
    )
    size = 1024
    scripts = {
        NodeId(0, nodes_per_cluster - 1): [
            (10.0, NodeId(1, nodes_per_cluster - 1), size),   # m1
            (20.0, NodeId(1, nodes_per_cluster - 1), size),   # m2
        ],
        NodeId(1, nodes_per_cluster - 1): [
            (40.0, NodeId(2, nodes_per_cluster - 1), size),   # m3
            (60.0, NodeId(2, nodes_per_cluster - 1), size),   # m4
        ],
        NodeId(2, nodes_per_cluster - 1): [
            (70.0, NodeId(0, nodes_per_cluster - 1), size),   # m5
        ],
    }
    fed = Federation(
        topology,
        application,
        timers,
        protocol="hc3i",
        protocol_options=protocol_options,
        seed=seed,
        trace_level=TraceLevel.MESSAGE,
        app_factory=scripted_sender_factory(scripts),
    )
    fed.start()
    # Unforced CLCs in cluster 1 at t=30 and t=50 (the paper's timer CLCs).
    fed.sim.schedule_at(30.0, fed.protocol.request_checkpoint, 1)
    fed.sim.schedule_at(50.0, fed.protocol.request_checkpoint, 1)

    outcome = Figure5Outcome(federation=fed)

    # Phase 1: run just past m5 and snapshot the pre-fault state.
    fed.run(until=75.0)
    for cs in fed.protocol.cluster_states:
        outcome.pre_fault_sns.append(cs.sn)
        outcome.pre_fault_ddvs.append(cs.ddv_tuple())
    for c in range(3):
        outcome.pre_fault_forced.append(fed.results().clc_counts(c)["forced"])

    # Ack bookkeeping: label messages m1..m5 in send order per flow.
    logs = fed.protocol.cluster_states
    c0_entries = sorted(logs[0].sent_log, key=lambda e: e.msg.msg_id)
    c1_entries = sorted(logs[1].sent_log, key=lambda e: e.msg.msg_id)
    c2_entries = sorted(logs[2].sent_log, key=lambda e: e.msg.msg_id)
    for label, entry in zip(("m1", "m2"), c0_entries):
        outcome.acks[label] = entry.ack_sn
    for label, entry in zip(("m3", "m4"), c1_entries):
        outcome.acks[label] = entry.ack_sn
    for label, entry in zip(("m5",), c2_entries):
        outcome.acks[label] = entry.ack_sn

    # Phase 2: the fault in (paper) cluster 2 == index 1.
    fed.inject_failure(NodeId(1, nodes_per_cluster - 1))
    fed.run(until=200.0)

    for cs in fed.protocol.cluster_states:
        outcome.post_fault_sns.append(cs.sn)
    for record in fed.tracer.find("rollback"):
        outcome.rollbacks.append((record["cluster"], record["to_sn"]))
    for record in fed.tracer.find("alert_received"):
        pair = (record["faulty"], record["sn"])
        if pair not in outcome.alerts:
            outcome.alerts.append(pair)
    outcome.replays = fed.results().counter("rollback/replays")
    return outcome


# --------------------------------------------------------------------------
# sweep-engine registration: the worked example as a one-point grid


def _grid(seed: int = 0, nodes_per_cluster: int = 2) -> list:
    return [{"seed": seed, "nodes_per_cluster": nodes_per_cluster}]


def _point(params: dict) -> dict:
    """Run the worked example and keep only the picklable summary."""
    outcome = figure5_scenario(
        seed=params["seed"], nodes_per_cluster=params["nodes_per_cluster"]
    )
    return {
        "pre_fault_sns": list(outcome.pre_fault_sns),
        "pre_fault_forced": list(outcome.pre_fault_forced),
        "acks": dict(outcome.acks),
        "post_fault_sns": list(outcome.post_fault_sns),
        "rollbacks": [list(r) for r in outcome.rollbacks],
        "alerts": [list(a) for a in outcome.alerts],
        "replays": outcome.replays,
    }


def _reduce(grid: list, points: list) -> ExperimentResult:
    point = points[0]
    rows = [
        ("pre-fault SNs", str(point["pre_fault_sns"])),
        ("pre-fault forced CLCs", str(point["pre_fault_forced"])),
        ("acks (m1..m5)", str(point["acks"])),
        ("post-fault SNs", str(point["post_fault_sns"])),
        ("rollbacks (cluster, to SN)", str(point["rollbacks"])),
        ("alerts (faulty, SN)", str(point["alerts"])),
        ("replays", point["replays"]),
    ]
    return ExperimentResult(
        name="Figure 5 -- worked example (§4)",
        description=(
            "Three clusters, scripted sends m1..m5, one fault in the middle "
            "cluster; the rollback cascade must stop after one hop per "
            "neighbour."
        ),
        headers=["quantity", "value"],
        rows=rows,
        paper={
            "rollbacks": "C1 to SN 4, C2 to SN 3, C0 to SN 2; nobody further"
        },
    )


EXPERIMENT = register(
    Experiment(
        name="figure5",
        title="Figure 5 -- §4 worked example as an executable scenario",
        artifact="Figure 5",
        grid=_grid,
        point=_point,
        reduce=_reduce,
        scaled=False,
    )
)

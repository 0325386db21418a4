"""Workloads calibrated to the paper's evaluation (§5).

The paper's application files are not published; probabilities here are
calibrated analytically so the *expected* message counts land on Table 1:

=====================  ======  =========================================
flow                    count   calibration
=====================  ======  =========================================
cluster 0 -> cluster 0   2920   100 nodes x 36000s / 1174.6s x 0.95269
cluster 1 -> cluster 1   2497   100 nodes x 36000s / 1435.4s x 0.99561
cluster 0 -> cluster 1    145   ... x 0.04731
cluster 1 -> cluster 0     11   ... x 0.00439
=====================  ======  =========================================

"There are lots of communications inside each cluster and few between
them.  This could correspond to a simulation running on cluster 0 and to
trace processor on cluster 1" (§5.2).
"""

from __future__ import annotations

from typing import Optional

from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.timers import HOUR, MINUTE, TimersConfig
from repro.network.topology import (
    ETHERNET_LIKE,
    MYRINET_LIKE,
    ClusterSpec,
    Topology,
    two_cluster_topology,
)

__all__ = [
    "fig9_workload",
    "pipeline_workload",
    "table1_workload",
    "table2_workload",
    "table3_workload",
]

#: the paper's 10-hour application
TOTAL_TIME = 10 * HOUR

# Table 1 calibration targets.
_C0_SENDS = 2920 + 145      # total emissions of cluster 0
_C1_SENDS = 2497 + 11       # total emissions of cluster 1


def table1_workload(
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    clc_period_0: Optional[float] = 30 * MINUTE,
    clc_period_1: Optional[float] = None,
    gc_period: Optional[float] = None,
    messages_1_to_0: int = 11,
    message_size: int = 1024,
):
    """The §5.2 evaluation scenario (Table 1, Figures 6-8).

    Returns ``(topology, application, timers)``.  ``clc_period_1=None``
    reproduces Fig. 6/7 ("Cluster 1 delay between CLCs is set to
    infinite"); pass a finite value for Fig. 8.  ``messages_1_to_0`` scales
    the sparse reverse flow (Fig. 9 sweeps it).
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    # Means keep the paper's per-node activity rate; probabilities are the
    # full-scale ratios, so a scaled-down run sees proportionally scaled
    # expected counts (e.g. 145 * scale messages 0 -> 1).
    mean0 = 100 * TOTAL_TIME / _C0_SENDS
    mean1 = 100 * TOTAL_TIME / _C1_SENDS
    p0_inter = 145.0 / _C0_SENDS
    p1_inter = min(1.0, messages_1_to_0 / _C1_SENDS)
    application = ApplicationConfig(
        clusters=[
            ClusterAppSpec(
                mean_compute=mean0,
                send_probabilities=[1.0 - p0_inter, p0_inter],
                message_size=message_size,
            ),
            ClusterAppSpec(
                mean_compute=mean1,
                send_probabilities=[p1_inter, 1.0 - p1_inter],
                message_size=message_size,
            ),
        ],
        total_time=total_time,
    )
    timers = TimersConfig(
        clc_periods=[clc_period_0, clc_period_1],
        gc_period=gc_period,
    )
    return two_cluster_topology(nodes), application, timers


def fig9_workload(
    messages_1_to_0: int,
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    clc_period: float = 30 * MINUTE,
):
    """Figure 9: "the number of messages from cluster 1 to cluster 0 ...
    is represented on the x axis"; both CLC timers at 30 minutes."""
    return table1_workload(
        nodes=nodes,
        total_time=total_time,
        clc_period_0=clc_period,
        clc_period_1=clc_period,
        messages_1_to_0=messages_1_to_0,
    )


def table2_workload(
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    gc_period: Optional[float] = 2 * HOUR,
    clc_period: float = 30 * MINUTE,
):
    """Table 2: the Fig. 9 scenario at 103 messages 1->0 with a garbage
    collection "launched every 2 hours"."""
    return table1_workload(
        nodes=nodes,
        total_time=total_time,
        clc_period_0=clc_period,
        clc_period_1=clc_period,
        gc_period=gc_period,
        messages_1_to_0=103,
    )


def table3_workload(
    nodes: int = 100,
    total_time: float = TOTAL_TIME,
    gc_period: Optional[float] = 2 * HOUR,
    clc_period: float = 30 * MINUTE,
    inter_messages: int = 100,
):
    """Table 3: three clusters ("Cluster 2 is a clone of cluster 1"),
    "approximately 200 messages that leave and arrive in each cluster".

    Each cluster sends ``inter_messages`` to each of the two others.
    """
    full_sends = [_C0_SENDS, _C1_SENDS, _C1_SENDS]
    specs = []
    for c in range(3):
        p_each = min(0.5, inter_messages / full_sends[c])
        probs = [p_each] * 3
        probs[c] = 1.0 - 2 * p_each
        specs.append(
            ClusterAppSpec(
                mean_compute=100 * TOTAL_TIME / full_sends[c],
                send_probabilities=probs,
            )
        )
    topology = Topology(
        clusters=[
            ClusterSpec("cluster0", nodes, MYRINET_LIKE),
            ClusterSpec("cluster1", nodes, MYRINET_LIKE),
            ClusterSpec("cluster2", nodes, MYRINET_LIKE),
        ],
        default_inter_link=ETHERNET_LIKE,
    )
    application = ApplicationConfig(clusters=specs, total_time=total_time)
    timers = TimersConfig(
        clc_periods=[clc_period] * 3,
        gc_period=gc_period,
    )
    return topology, application, timers


def pipeline_workload(
    nodes_per_stage: int = 20,
    n_stages: int = 3,
    total_time: float = 2 * HOUR,
    mean_compute: float = 120.0,
    forward_probability: float = 0.05,
    skip_probability: float = 0.0,
    clc_period: float = 15 * MINUTE,
    gc_period: Optional[float] = HOUR,
):
    """The Figure 1 code-coupling pipeline: Simulation -> Treatment ->
    Display, each stage on its own cluster, messages flowing downstream.

    ``skip_probability`` adds sparse stage ``i -> i+2`` messages (e.g. raw
    samples sent straight to the display).  Skip links are where the §7
    transitive-DDV extension pays off: the downstream cluster already
    learned the upstream SN through the middle stage, so the direct message
    does not force a CLC.
    """
    if n_stages < 2:
        raise ValueError("a pipeline needs at least 2 stages")
    specs = []
    for stage in range(n_stages):
        probs = [0.0] * n_stages
        outgoing = 0.0
        if stage + 1 < n_stages:
            probs[stage + 1] = forward_probability
            outgoing += forward_probability
        if skip_probability and stage + 2 < n_stages:
            probs[stage + 2] = skip_probability
            outgoing += skip_probability
        probs[stage] = 1.0 - outgoing
        specs.append(
            ClusterAppSpec(mean_compute=mean_compute, send_probabilities=probs)
        )
    topology = Topology(
        clusters=[
            ClusterSpec(f"stage{i}", nodes_per_stage, MYRINET_LIKE)
            for i in range(n_stages)
        ],
        default_inter_link=ETHERNET_LIKE,
    )
    application = ApplicationConfig(clusters=specs, total_time=total_time)
    timers = TimersConfig(
        clc_periods=[clc_period] * n_stages,
        gc_period=gc_period,
    )
    return topology, application, timers

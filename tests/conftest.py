"""Shared fixtures and helpers for the HC3I reproduction test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cluster.federation import Federation
from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.timers import TimersConfig
from repro.network.message import NodeId
from repro.network.topology import ClusterSpec, LinkSpec, Topology
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLevel, TraceRecord


FAST_INTRA = LinkSpec(latency=10e-6, bandwidth=80e6)
FAST_INTER = LinkSpec(latency=150e-6, bandwidth=100e6)


def small_topology(n_clusters: int = 2, nodes: int = 3) -> Topology:
    return Topology(
        clusters=[ClusterSpec(f"c{i}", nodes, FAST_INTRA) for i in range(n_clusters)],
        default_inter_link=FAST_INTER,
    )


def idle_application(n_clusters: int = 2, total_time: float = 1000.0) -> ApplicationConfig:
    """An application that (almost) never sends -- for protocol-only tests."""
    return ApplicationConfig(
        clusters=[
            ClusterAppSpec(mean_compute=1e12, send_probabilities=[])
            for _ in range(n_clusters)
        ],
        total_time=total_time,
    )


def chatty_application(
    n_clusters: int = 2,
    total_time: float = 1000.0,
    mean_compute: float = 30.0,
    p_inter: float = 0.2,
) -> ApplicationConfig:
    """A busy application with plenty of inter-cluster traffic."""
    specs = []
    for c in range(n_clusters):
        probs = [p_inter / (n_clusters - 1)] * n_clusters if n_clusters > 1 else [0.0]
        if n_clusters > 1:
            probs[c] = 1.0 - p_inter
        specs.append(
            ClusterAppSpec(mean_compute=mean_compute, send_probabilities=probs)
        )
    return ApplicationConfig(clusters=specs, total_time=total_time)


def default_timers(n_clusters: int = 2, clc_period=120.0, gc_period=None) -> TimersConfig:
    return TimersConfig(
        clc_periods=[clc_period] * n_clusters,
        gc_period=gc_period,
        failure_detection_delay=0.5,
        checkpoint_restore_time=0.2,
        node_repair_time=1.0,
        node_state_size=100_000,
    )


def make_federation(
    n_clusters: int = 2,
    nodes: int = 3,
    total_time: float = 1000.0,
    clc_period=120.0,
    gc_period=None,
    protocol: str = "hc3i",
    protocol_options=None,
    seed: int = 0,
    chatty: bool = False,
    trace: TraceLevel = TraceLevel.PROTOCOL,
    app_factory=None,
) -> Federation:
    application = (
        chatty_application(n_clusters, total_time)
        if chatty
        else idle_application(n_clusters, total_time)
    )
    return Federation(
        small_topology(n_clusters, nodes),
        application,
        default_timers(n_clusters, clc_period, gc_period),
        protocol=protocol,
        protocol_options=protocol_options,
        seed=seed,
        trace_level=trace,
        app_factory=app_factory,
    )


REPO_ROOT = Path(__file__).resolve().parents[1]


class Mailbox:
    """An application sink (``node.app_sink``) recording deliveries."""

    def __init__(self) -> None:
        self.messages: list = []

    def __call__(self, msg) -> None:
        self.messages.append(msg)

    def __len__(self) -> int:
        return len(self.messages)

    def ids(self) -> list:
        return [m.msg_id for m in self.messages]

    def senders(self) -> list:
        return [m.src for m in self.messages]


def entry_count(cache) -> int:
    """How many results a :class:`ResultCache` holds on disk."""
    return sum(1 for _ in cache.root.rglob("*.pkl"))


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def fed() -> Federation:
    return make_federation()


def nid(cluster: int, node: int) -> NodeId:
    return NodeId(cluster, node)


def inject_record(fed: Federation, time: float, kind: str, **fields) -> None:
    """Append a ``PROTOCOL``-level record stamped ``time`` to ``fed``'s trace
    -- how a test seeds a send, delivery or erasure into the oracle's input."""
    fed.tracer.records.append(TraceRecord(time, TraceLevel.PROTOCOL, kind, fields))


def inject_send(fed: Federation, msg_id: int, time: float, arrival: float,
                src: str = "c0n0", dst: str = "c1n0") -> None:
    """Seed an inter-cluster application send the run never made."""
    inject_record(fed, time, "send", msg_id=msg_id, src=src, dst=dst,
                  msg_kind="app", piggyback=None, arrival=arrival)

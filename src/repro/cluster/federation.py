"""Federation builder: one object wiring everything into a runnable model.

Typical use::

    from repro.app.workloads import table1_workload
    from repro.cluster.federation import Federation

    topology, application, timers = table1_workload()
    fed = Federation(topology, application, timers, protocol="hc3i", seed=1)
    results = fed.run()
    print(results.clc_counts(0))

The federation owns the simulator, random streams, statistics registry,
tracer and fabric; builds clusters/nodes; instantiates the protocol by name
(HC3I or a baseline); starts the application processes; and injects
failures per the topology MTBF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.failures import FailureInjector
from repro.cluster.node import ClusterRuntime, Node
from repro.cluster.storage import StableStorage
from repro.config.application import ApplicationConfig
from repro.config.timers import TimersConfig
from repro.core.protocol import BaseProtocol, make_protocol
from repro.network.fabric import Fabric
from repro.network.message import NodeId
from repro.network.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.process import Process, Signal
from repro.sim.random import RandomStreams
from repro.sim.snapshot import SimClock
from repro.sim.stats import StatsRegistry
from repro.sim.trace import TraceLevel, Tracer

__all__ = ["Federation", "FederationResults"]


class Federation:
    """A runnable cluster-federation simulation."""

    def __init__(
        self,
        topology: Topology,
        application: ApplicationConfig,
        timers: TimersConfig,
        protocol: str = "hc3i",
        protocol_options: Optional[dict] = None,
        seed: int = 0,
        trace_level: TraceLevel = TraceLevel.NONE,
        app_factory=None,
    ):
        if len(application.clusters) != topology.n_clusters:
            raise ValueError(
                f"application has {len(application.clusters)} cluster specs, "
                f"topology has {topology.n_clusters} clusters"
            )
        self.topology = topology
        self.application = application
        self.timers = timers
        self.seed = seed
        self.protocol_name = protocol

        self.sim = Simulator()
        clock = SimClock(self.sim)
        self.streams = RandomStreams(seed)
        self.stats = StatsRegistry(clock)
        self.tracer = Tracer(clock, trace_level)
        self.fabric = Fabric(self.sim, topology, self.stats, self.tracer)

        self.clusters: list[ClusterRuntime] = []
        for ci, spec in enumerate(topology.clusters):
            nodes = [Node(NodeId(ci, ni), self.sim, self.fabric) for ni in range(spec.nodes)]
            for n in nodes:
                n._stats = self.stats
            self.clusters.append(ClusterRuntime(ci, nodes))

        self.protocol: BaseProtocol = make_protocol(protocol, self, protocol_options)
        for cluster in self.clusters:
            for node in cluster.nodes:
                node.agent = self.protocol.make_agent(node)

        degree = getattr(getattr(self.protocol, "options", None), "replication_degree", 1)
        self.storage = [
            StableStorage(ci, spec.nodes, degree)
            for ci, spec in enumerate(topology.clusters)
        ]

        if app_factory is None:
            from repro.app.process import compute_communicate_factory

            app_factory = compute_communicate_factory()
        self.app_factory = app_factory

        self.injector = (
            FailureInjector(self, topology.mtbf) if topology.failures_enabled else None
        )
        self._recovery_signals: dict = {}
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.protocol.start()
        for cluster in self.clusters:
            for node in cluster.nodes:
                self._start_app(node)
        if self.injector is not None:
            self.injector.start()

    def run(self, until: Optional[float] = None) -> "FederationResults":
        """Run to ``until`` (default: the application's total time)."""
        self.start()
        self.sim.run(until=until if until is not None else self.application.total_time)
        return self.results()

    def _start_app(self, node: Node) -> None:
        node.app_process = Process(
            self.sim, self.app_factory(node, self), name=f"app-{node.id}"
        )

    # ------------------------------------------------------------------
    # hooks used by protocols
    # ------------------------------------------------------------------
    def node(self, node_id: NodeId) -> Node:
        return self.clusters[node_id.cluster].nodes[node_id.node]

    def on_cluster_rollback(
        self, cluster: int, target_time: float, failed_node: Optional[Node] = None
    ) -> None:
        """Interrupt the cluster's application and account the lost work."""
        if self.tracer.level >= TraceLevel.PROTOCOL:  # read by the consistency oracle
            self.tracer.protocol("erasure", cluster=cluster, target_time=target_time)
        now = self.sim.now
        lost_each = max(0.0, now - target_time)
        runtime = self.clusters[cluster]
        for node in runtime.nodes:
            if node.app_process is not None and node.app_process.alive:
                node.app_process.interrupt(cause="rollback")
            self.stats.tally("rollback/lost_work").record(lost_each)
        self.stats.tally(f"rollback/c{cluster}/lost_work").record(
            lost_each * runtime.size
        )

    def restart_cluster_apps(self, cluster: int) -> None:
        """Re-execute from the restored checkpoint (recovery completed)."""
        if self.sim.now >= self.application.total_time:
            return  # the application is over; nothing to re-execute
        for node in self.clusters[cluster].nodes:
            if node.up and (node.app_process is None or not node.app_process.alive):
                self._start_app(node)

    def recovery_signal(self, cluster: int) -> Signal:
        sig = self._recovery_signals.get(cluster)
        if sig is None or sig.triggered:
            sig = Signal(self.sim, name=f"recovery-c{cluster}")
            self._recovery_signals[cluster] = sig
        return sig

    def notify_recovery_complete(self, cluster: int) -> None:
        sig = self._recovery_signals.get(cluster)
        if sig is not None and not sig.triggered:
            sig.trigger(cluster)

    def inject_failure(self, node_id: NodeId) -> None:
        """Crash a node on demand (examples / tests); the oracle detector
        reports it after the configured ``failure_detection_delay``."""
        injector = self.injector
        if injector is None:
            injector = FailureInjector(self, mtbf=1.0)
            self.injector = injector
        injector.inject(node_id)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def results(self) -> "FederationResults":
        n = self.topology.n_clusters
        clusters = []
        for c in range(n):
            summary = dict(self.protocol.cluster_summary(c))
            summary["nodes"] = self.topology.nodes_in(c)
            stored = summary.get("clc_stored")
            if stored is not None:
                summary["states_per_node"] = self.storage[c].states_held_by(0, stored)
            clusters.append(summary)
        return FederationResults(
            protocol=self.protocol_name,
            seed=self.seed,
            duration=self.sim.now,
            events=self.sim.processed,
            clusters=clusters,
            messages=self.fabric.app_message_matrix(),
            protocol_messages=self.fabric.protocol_message_count(),
            stats=self.stats.snapshot(),
        )


@dataclass
class FederationResults:
    """Snapshot of everything an experiment needs after a run."""

    protocol: str
    seed: int
    duration: float
    events: int
    clusters: list
    messages: dict
    protocol_messages: int
    stats: dict = field(default_factory=dict)

    # -- convenience accessors (used by experiments & tests) -----------
    def app_messages(self, src: int, dst: int) -> int:
        return self.messages.get((src, dst), 0)

    def clc_counts(self, cluster: int) -> dict:
        """Forced / unforced / initial / total committed CLCs."""
        c = self.clusters[cluster]
        return {
            "forced": c.get("clc_forced", 0),
            "unforced": c.get("clc_unforced", 0),
            "initial": c.get("clc_initial", 0),
            "total": c.get("clc_total", 0),
        }

    def stored_clcs(self, cluster: int) -> int:
        return self.clusters[cluster].get("clc_stored", 0)

    def gc_series(self, cluster: int) -> list:
        """[(time, before, after)] for every garbage collection."""
        before = self.stats.get(f"gc/c{cluster}/before", [])
        after = self.stats.get(f"gc/c{cluster}/after", [])
        return [
            (tb, int(vb), int(va))
            for (tb, vb), (_ta, va) in zip(before, after)
        ]

    def counter(self, name: str, default: int = 0) -> int:
        value = self.stats.get(name, default)
        return int(value) if isinstance(value, (int, float)) else default

"""Fail-stop failure injection and detection.

The topology file carries "the federation MTBF" (§5.1); failures are
injected with exponentially distributed inter-arrival times and strike a
uniformly chosen live node.  The paper assumes "only one fault occurs at a
time" (§2.1), so the injector waits for the protocol to finish recovering
before arming the next fault.

The failure *detector* is explicitly out of the paper's scope ("the
description of the failure detector is out of the scope of this paper",
§3.4); it is modelled as an oracle that reports the crash to the protocol
after a configurable delay.  Simultaneous faults (two clusters recovering
at once) only arrive through :meth:`Federation.inject_failure`, which a
``failures`` schedule of :func:`repro.experiments.common.run_federation`
calls, never from the MTBF draw.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.network.message import NodeId
from repro.sim.process import Body, Process, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation

__all__ = ["FailureInjector"]


class FailureInjector(Body):
    """MTBF-driven fault injector, and the body of its own process.

    Exactly one fault is in flight at a time (the paper's §2.1
    assumption): after each crash the injector waits for the faulty
    cluster to recover before arming the next one, and it never draws a
    victim from a cluster that is still recovering.
    """

    def __init__(self, federation: "Federation", mtbf: float):
        if mtbf <= 0:
            raise ValueError(f"MTBF must be positive: {mtbf}")
        self.federation = federation
        self.mtbf = mtbf
        self.stream = federation.streams.stream("failures")
        self.injected = 0
        self._process: Optional[Process] = None
        self._armed = False  # a fault's countdown is under way

    def start(self) -> None:
        self._process = Process(self.federation.sim, self, name="failure-injector")

    # ------------------------------------------------------------------
    def send(self, _value: object):
        """One step: strike when a fault's countdown ends, then arm the next."""
        fed = self.federation
        if self._armed:
            self._armed = False
            node = self._pick_victim()
            if node is not None:
                self.inject(node.id)
                # One fault at a time: wait until the protocol reports the
                # faulty cluster recovered before arming the next one.
                return fed.recovery_signal(node.id.cluster)
        delay = self.stream.exponential(self.mtbf)
        if fed.sim.now + delay >= fed.application.total_time:
            raise StopIteration
        self._armed = True
        return Timeout(delay)

    def _cluster_healthy(self, cluster_index: int) -> bool:
        runtime = self.federation.clusters[cluster_index]
        if any(not n.up for n in runtime.nodes):
            return False
        states = self.federation.protocol.cluster_states
        return not (states and states[cluster_index].recovering)

    def _pick_victim(self):
        candidates = [
            n
            for cluster in self.federation.clusters
            for n in cluster.nodes
            if n.up and self._cluster_healthy(cluster.index)
        ]
        if not candidates:
            return None
        return self.stream.choice(candidates)

    # ------------------------------------------------------------------
    def inject(self, node_id: NodeId) -> None:
        """Crash a node now and have the oracle report it after the
        ``failure_detection_delay`` (also usable from tests/examples)."""
        fed = self.federation
        node = fed.node(node_id)
        if not node.up:
            return
        self.injected += 1
        fed.stats.counter("failures/injected").inc()
        fed.tracer.protocol("node_failed", cluster=node_id.cluster, node=node_id.node)
        node.fail()
        fed.sim.schedule(fed.timers.failure_detection_delay, self._detect, node)

    def _detect(self, node) -> None:
        if node.up:
            return  # already recovered through another path
        self.federation.stats.counter("failures/detected").inc()
        self.federation.protocol.on_failure_detected(node)

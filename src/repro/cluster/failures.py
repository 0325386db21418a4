"""Fail-stop failure injection and detection.

The topology file carries "the federation MTBF" (§5.1); failures are
injected with exponentially distributed inter-arrival times and strike a
uniformly chosen live node.  The paper assumes "only one fault occurs at a
time" (§2.1), so the injector waits for the protocol to finish recovering
before arming the next fault.

The failure *detector* is explicitly out of the paper's scope ("the
description of the failure detector is out of the scope of this paper",
§3.4); it is modelled as an oracle that reports the crash to the protocol
after a configurable delay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.network.message import NodeId
from repro.sim.process import Process, Timeout
from repro.sim.snapshot import GenSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation

__all__ = ["FailureInjector"]


class FailureInjector:
    """MTBF-driven fault injector.

    By default exactly one fault is in flight at a time (the paper's §2.1
    assumption).  With ``allow_simultaneous=True`` (the §7 extension:
    "the protocol should tolerate simultaneous faults in different
    clusters") the injector keeps arming faults while earlier ones are
    still recovering, as long as the victim's *cluster* is healthy -- the
    degree-k stable storage bounds how many faults a single cluster can
    absorb at once, so victims are never drawn from a recovering cluster.
    """

    def __init__(
        self,
        federation: "Federation",
        mtbf: float,
        allow_simultaneous: bool = False,
    ):
        if mtbf <= 0:
            raise ValueError(f"MTBF must be positive: {mtbf}")
        self.federation = federation
        self.mtbf = mtbf
        self.allow_simultaneous = allow_simultaneous
        self.stream = federation.streams.stream("failures")
        self.injected = 0
        self._process: Optional[Process] = None

    def start(self) -> None:
        spec = GenSpec(self._run)
        self._process = Process(
            self.federation.sim, spec.make(), name="failure-injector", gen_spec=spec
        )

    # ------------------------------------------------------------------
    def _run(self, _phase=None):
        fed = self.federation
        end = fed.application.total_time
        ph = _phase if _phase is not None else {}
        gate = ph.get("at")
        while True:
            if gate == "armed":
                gate = None
                yield  # restored mid fault countdown: pending Timeout resumes here
            elif gate == "recovery":
                gate = None
                yield  # restored awaiting recovery: pending Signal resumes here
                continue
            else:
                delay = self.stream.exponential(self.mtbf)
                if fed.sim.now + delay >= end:
                    return
                ph["at"] = "armed"
                yield Timeout(delay)
            node = self._pick_victim()
            if node is None:
                continue
            # With a heartbeat detector installed, detection happens via
            # missed probes rather than the oracle callback.
            self.inject(node.id, detect=fed.detector is None)
            if not self.allow_simultaneous:
                # One fault at a time: wait until the protocol reports the
                # faulty cluster recovered before arming the next one.
                ph["at"] = "recovery"
                yield fed.recovery_signal(node.id.cluster)

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
    def inject(self, node_id: NodeId, detect: bool = True) -> None:
        """Crash a node now (also usable directly from tests/examples)."""
        fed = self.federation
        node = fed.node(node_id)
        if not node.up:
            return
        self.injected += 1
        fed.stats.counter("failures/injected").inc()
        fed.tracer.protocol("node_failed", cluster=node_id.cluster, node=node_id.node)
        node.fail()
        if detect:
            fed.sim.schedule(
                fed.timers.failure_detection_delay, self._detect, node
            )

    def _detect(self, node) -> None:
        if node.up:
            return  # already recovered through another path
        self.federation.stats.counter("failures/detected").inc()
        self.federation.protocol.on_failure_detected(node)

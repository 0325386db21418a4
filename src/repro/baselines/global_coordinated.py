"""Federation-wide coordinated checkpointing baseline.

One initiator (the leader of cluster 0) runs the classic two-phase commit
over *every node of the federation*: request broadcast, acknowledgements,
commit broadcast, with application messages frozen in between.  This is the
approach the paper rules out at federation scale: "The large number of
nodes and network performance between clusters do not allow a global
synchronization" (§2.2).

What the benchmarks measure against HC3I:

* **freeze time** -- the request->commit window now spans WAN round trips,
  and every node in the federation pays it at every checkpoint
  (``global/freeze_time`` tally),
* **rollback scope** -- any single failure rolls back *all* clusters to the
  last global checkpoint (``rollback/clusters_rolled``),
* **control traffic** crossing the inter-cluster links for every round.

Inter-cluster application messages need no piggyback, no logging and no
forced checkpoints: the global commit line is consistent by construction.
In-transit messages at request time are handled like HC3I's intra-cluster
ones: delivery during the window amends the receiver's saved state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.protocol import register_protocol
from repro.core.recovery_line import ErasedWindows
from repro.core.rounds import (
    Checkpoint,
    FreezeAgent,
    LineClusterState,
    LineProtocol,
    TwoPhaseRound,
)
from repro.network.message import Message
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["GlobalCoordinatedProtocol"]


@register_protocol("global-coordinated")
class GlobalCoordinatedProtocol(LineProtocol, ErasedWindows):
    """Single 2PC across the whole federation."""

    def __init__(self, federation, options: Optional[dict] = None):
        LineProtocol.__init__(self, federation, options)
        # in-flight messages whose send a rollback just erased are dropped
        ErasedWindows.__init__(self, self.n_clusters)
        #: one checkpoint history for everybody: the clusters share it
        self.state = LineClusterState(0)
        self.cluster_states = [self.state] * self.n_clusters
        #: the participant set of a round is the whole federation
        self.round = TwoPhaseRound(self._commit)
        self.rounds = [self.round] * self.n_clusters
        period = federation.timers.clc_period_for(0)
        self.timer = PeriodicTimer(self.sim, period, self._timer_fired, name="global-clc")

    # ------------------------------------------------------------------
    def make_agent(self, node: "Node") -> "GlobalAgent":
        return GlobalAgent(self, node, self.round, self.state)

    def start(self) -> None:
        self._initiate()  # initial global checkpoint at t=0
        self.timer.start()

    def _timer_fired(self) -> None:
        if not self.round.collecting and not self.state.recovering:
            self._initiate()

    # ------------------------------------------------------------------
    # the global two-phase commit
    # ------------------------------------------------------------------
    def _initiate(self) -> None:
        clusters = self.federation.clusters
        self.round.begin(clusters[0].leader, [n for c in clusters for n in c.nodes])

    def _commit(self) -> None:
        st = self.state
        st.record(Checkpoint(st.sn + 1, self.sim.now))
        self.stats.counter("global/checkpoints").inc()
        self.stats.gauge("global/stored").set(len(st.checkpoints))
        self.tracer.protocol("global_commit", number=st.sn)
        self.round.release()
        self.timer.reset()

    # ------------------------------------------------------------------
    # failure: everybody rolls back
    # ------------------------------------------------------------------
    def on_failure_detected(self, node: "Node") -> None:
        if not self.state.checkpoints:
            raise RuntimeError("failure before the initial global checkpoint")
        self.tracer.protocol("global_rollback", number=self.state.sn, failed=str(node.id))
        self.roll_back_line(node, [self.state.sn] * self.n_clusters)

    def note_rollback(self, cluster: int, depth: int) -> None:
        pass  # one ``global_rollback`` record stands for all clusters

    def restore_cluster(self, cluster: int, record: Checkpoint) -> None:
        self.record_window(cluster, record.time, self.sim.now)

    def _complete_recovery(self, targets: list, failed_node: "Node") -> None:
        self.state.recovering = False
        fed = self.federation
        if not failed_node.up:
            failed_node.recover()
        for cluster in fed.clusters:
            fed.restart_cluster_apps(cluster.index)
            fed.notify_recovery_complete(cluster.index)
        self.timer.reset()
        self.tracer.protocol("global_recovery_complete", number=self.state.sn)

    def cluster_summary(self, cluster: int) -> dict:
        number = self.state.sn
        return {
            "clc_total": number,
            "clc_unforced": number - 1,
            "clc_forced": 0,
            "clc_initial": 1 if number else 0,
            "clc_stored": len(self.state.checkpoints),
        }


class GlobalAgent(FreezeAgent):
    """Per-node endpoint of the global protocol: no piggyback, no forced
    checkpoints; it only times its freeze windows."""

    def __init__(self, protocol, node: "Node", round: TwoPhaseRound, state: LineClusterState):
        super().__init__(protocol, node, round, state)
        self._freeze_started = 0.0

    def on_inter_arrival(self, msg: Message) -> None:
        if self.protocol.send_erased(msg):
            # Ghost: the send was erased while the message crossed the
            # WAN -- everybody already rolled behind its send point.
            self.protocol.stats.counter("global/ghosts_dropped").inc()
            self.protocol.tracer.protocol(
                "ghost_dropped", cluster=self.node.id.cluster,
                msg_id=msg.msg_id, src=msg.src.cluster,
            )
            return
        # Deliveries during the freeze window amend the saved state
        # (same convention as HC3I's intra-cluster handling).
        self.node.deliver_app(msg)

    def freeze(self) -> None:
        if not self.frozen:
            self._freeze_started = self.node.sim.now
        super().freeze()

    def unfreeze(self) -> None:
        if self.frozen:
            self.protocol.stats.tally("global/freeze_time").record(
                self.node.sim.now - self._freeze_started
            )
        super().unfreeze()

"""Independent checkpointing baseline (domino effect).

Each cluster takes coordinated checkpoints on its own timer -- exactly
HC3I's cluster level -- but nothing happens at the federation level: no
piggybacked SNs trigger forced CLCs, and nothing is logged.  Dependencies
are only *recorded* (sender checkpoint-interval stamped on each
inter-cluster message) so that the recovery line can be computed at
rollback time, which is precisely the scheme §2.2 warns about: "tracking
dependencies to compute the recovery line at rollback time would be very
hard and nodes may rollback to very old checkpoints (domino effect)".

Consistency is the paper's strict definition (no ghost *and* no in-transit
messages), giving the textbook bidirectional domino:

* a **ghost** (receive kept, send erased) forces the receiver back before
  the receive,
* an **in-transit** message (send kept, receive erased) forces the sender
  back before the send, since without logs nobody can re-produce it.

:func:`repro.core.recovery_line.line_targets` with both directions
propagating is the pure fixpoint; benchmarks use it to report rollback
depths, and property tests verify it against brute force.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Optional

from repro.core.protocol import register_protocol
from repro.core.recovery_line import GHOST, IN_TRANSIT, ErasedWindows
from repro.core.rounds import (
    Checkpoint,
    FreezeAgent,
    LineClusterState,
    LineProtocol,
    TwoPhaseRound,
)
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["IndependentProtocol"]


@register_protocol("independent")
class IndependentProtocol(LineProtocol, ErasedWindows):
    """Uncoordinated cluster checkpoints + rollback-time recovery line."""

    stats_prefix = "independent"
    rollback_cause = "domino"
    #: nothing is logged: a lost receive can only be re-produced by rolling
    #: the sender back too
    propagate = (GHOST, IN_TRANSIT)

    def __init__(self, federation, options: Optional[dict] = None):
        LineProtocol.__init__(self, federation, options)
        # in-flight messages whose send a rollback erased while they were
        # on the wire are dropped on arrival (channel incarnation check)
        ErasedWindows.__init__(self, self.n_clusters)
        self.cluster_states = [LineClusterState(i) for i in range(self.n_clusters)]
        #: the participant set of a round is one cluster
        self.rounds = [
            TwoPhaseRound(functools.partial(self._commit, i))
            for i in range(self.n_clusters)
        ]
        self.timers_ = self.cluster_timers(self._initiate, "ind")

    # ------------------------------------------------------------------
    def make_agent(self, node: "Node") -> "IndependentAgent":
        cluster = node.id.cluster
        return IndependentAgent(self, node, self.rounds[cluster], self.cluster_states[cluster])

    def start(self) -> None:
        for i, timer in enumerate(self.timers_):
            self._initiate(i)
            timer.start()

    # -- intra-cluster coordinated checkpoint ----------------------------
    def _initiate(self, cluster: int) -> None:
        if self.rounds[cluster].collecting or self.cluster_states[cluster].recovering:
            return
        runtime = self.federation.clusters[cluster]
        self.rounds[cluster].begin(runtime.leader, runtime.nodes)

    def _commit(self, cluster: int) -> None:
        st = self.cluster_states[cluster]
        st.record(Checkpoint(st.sn + 1, self.sim.now))
        self.note_commit(cluster, "timer")
        self.note_stored(cluster)
        self.rounds[cluster].release()
        self.timers_[cluster].reset()

    # -- failure: domino ---------------------------------------------------
    def on_failure_detected(self, node: "Node") -> None:
        self.roll_back_line(node, self.computed_line(node.id.cluster))

    def restore_cluster(self, cluster: int, record: Checkpoint) -> None:
        self.record_window(cluster, record.time, self.sim.now)

    def _complete_recovery(self, targets: list, failed_node: "Node") -> None:
        self.finish_recovery(targets, failed_node, self.timers_)

    # ------------------------------------------------------------------
    def cluster_summary(self, cluster: int) -> dict:
        st = self.cluster_states[cluster]
        total = self.clc_count(cluster, "total")
        return {
            "sn": st.sn,
            "clc_total": total,
            "clc_unforced": max(0, total - 1),
            "clc_forced": 0,
            "clc_initial": 1 if total else 0,
            "clc_stored": len(st.checkpoints),
            "dependency_edges": self.edges_touching(cluster),
        }


class IndependentAgent(FreezeAgent):
    """Per-node endpoint: freeze windows + dependency stamping."""

    def stamp(self, msg: Message) -> None:
        msg.piggyback = self.state.sn  # dependency stamp, never forces
        msg.size += 8

    def on_inter_arrival(self, msg: Message) -> None:
        protocol = self.protocol
        cluster = self.node.id.cluster
        if protocol.send_erased(msg):
            # Ghost: the send was erased while the message was on the
            # wire.  Delivering it would poison the edge set AND the
            # application state with unsent data.
            protocol.stats.counter("independent/ghosts_dropped").inc()
            protocol.tracer.protocol(
                "ghost_dropped", cluster=cluster, msg_id=msg.msg_id,
                src=msg.src.cluster,
            )
            return
        protocol.edges.append((msg.src.cluster, msg.piggyback, cluster, self.state.sn))
        self.node.deliver_app(msg)

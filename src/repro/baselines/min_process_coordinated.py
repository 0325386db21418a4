"""Minimum-process coordinated checkpointing baseline.

Tuli & Kumar's family (arXiv:1111.2208): coordinated checkpointing where a
round initiated by one process synchronizes only the *minimum set* of
processes that are causally entangled with the initiator -- everyone else
keeps computing.  Mapped onto the federation substrate at cluster
granularity:

* each cluster runs a periodic initiation timer (like ``independent``),
* when cluster *c*'s timer fires, the round's participant set is the
  transitive closure of "communicated since its last checkpoint" starting
  from *c*; only those clusters freeze, save and commit together,
* the participants of one round share a mutually consistent cut by
  construction (they froze together), so the rollback-time recovery line
  -- the same bidirectional
  :func:`~repro.core.recovery_line.line_targets` fixpoint as
  ``independent`` -- is bounded by round membership instead of cascading
  to t=0.

Dependency discovery piggybacks the sender cluster's SN on inter-cluster
messages (exactly like ``independent``); the initiator's request/reply
dependency probe of the original algorithm is abstracted into the shared
protocol state, the way the other baselines centralize their
recovery-line computation.

Rollback epochs guard against messages from an erased timeline: every
rollback increments the cluster's epoch, and an arrival whose piggybacked
(sn, epoch) falls behind a recorded rollback cut is dropped as a ghost --
the same incarnation-number technique (and the same piggyback) HC3I uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.hc3i import SN_PIGGYBACK_SIZE, Piggyback
from repro.core.protocol import register_protocol
from repro.core.recovery_line import GHOST, IN_TRANSIT, GhostCuts, survives
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

__all__ = ["MinProcessCoordinatedProtocol"]


@register_protocol("min-process")
class MinProcessCoordinatedProtocol(LineProtocol, GhostCuts):
    """Coordinated rounds over the minimum causally-dependent cluster set."""

    stats_prefix = "minproc"
    rollback_cause = "domino"
    #: nothing is logged, so both directions propagate (as ``independent``)
    propagate = (GHOST, IN_TRANSIT)

    def __init__(self, federation, options: Optional[dict] = None):
        LineProtocol.__init__(self, federation, options)
        # every cluster learns of a rollback cut in the same instant, so
        # one federation-wide table stands for the per-cluster copies
        GhostCuts.__init__(self, self.n_clusters)
        self.cluster_states = [LineClusterState(i) for i in range(self.n_clusters)]
        #: per cluster: newest send-SN delivered there per source cluster;
        #: ``upstream[i][j] >= states[j].sn`` means j communicated with i
        #: since j's last checkpoint, so j belongs in i's minimum set
        self.upstream: list = [{} for _ in range(self.n_clusters)]
        #: one round at a time across the federation
        self.round = TwoPhaseRound(self._commit)
        self.rounds = [self.round] * self.n_clusters
        self.round_participants: list = []
        self.timers_ = self.cluster_timers(self._timer_fired, "minproc")

    # ------------------------------------------------------------------
    def make_agent(self, node: "Node") -> "MinProcAgent":
        return MinProcAgent(self, node, self.round, self.cluster_states[node.id.cluster])

    def start(self) -> None:
        # §4-style initial checkpoints: commit one per cluster directly at
        # t=0 (no dependencies exist yet, so every minimum set is {c}).
        for i, st in enumerate(self.cluster_states):
            st.record(Checkpoint(1, self.sim.now))
            self.note_commit(i, "initial")
        for timer in self.timers_:
            timer.start()

    # ------------------------------------------------------------------
    # dependency bookkeeping
    # ------------------------------------------------------------------
    def record_delivery(self, src: int, send_sn: int, dst: int) -> None:
        if send_sn > self.upstream[dst].get(src, -1):
            self.upstream[dst][src] = send_sn
        self.edges.append((src, send_sn, dst, self.cluster_states[dst].sn))

    def participants_for(self, initiator: int) -> list:
        """Transitive closure of "communicated since its last checkpoint".

        Cluster ``b`` is entangled with ``a`` when either delivered a
        message the other sent after that other's last checkpoint; the
        closure over this symmetric relation is the round's minimum set.
        """

        def related(a: int, b: int) -> bool:
            return (
                self.upstream[a].get(b, -1) >= self.cluster_states[b].sn
                or self.upstream[b].get(a, -1) >= self.cluster_states[a].sn
            )

        members = {initiator}
        frontier = [initiator]
        while frontier:
            a = frontier.pop()
            for b in range(self.n_clusters):
                if b not in members and related(a, b):
                    members.add(b)
                    frontier.append(b)
        return sorted(members)

    # ------------------------------------------------------------------
    # the coordinated round
    # ------------------------------------------------------------------
    def _timer_fired(self, cluster: int) -> None:
        if self.round.collecting or any(st.recovering for st in self.cluster_states):
            self.stats.counter("minproc/rounds_skipped").inc()
            return
        self._initiate(cluster)

    def _initiate(self, initiator: int) -> None:
        participants = self.participants_for(initiator)
        self.round_participants = participants
        self.stats.counter("minproc/rounds").inc()
        self.stats.tally("minproc/participants").record(len(participants))
        self.tracer.protocol(
            "minproc_round", initiator=initiator, participants=len(participants)
        )
        clusters = self.federation.clusters
        self.round.begin(
            clusters[initiator].leader,
            [node for c in participants for node in clusters[c].nodes],
        )

    def _commit(self) -> None:
        now = self.sim.now
        for c in self.round_participants:
            st = self.cluster_states[c]
            st.record(Checkpoint(st.sn + 1, now))
            self.note_commit(c, "timer")
            self.note_stored(c)
        self.round.release()
        for c in self.round_participants:
            self.timers_[c].reset()
        self.round_participants = []

    # ------------------------------------------------------------------
    # failure: bounded domino over the recorded edges
    # ------------------------------------------------------------------
    def on_failure_detected(self, node: "Node") -> None:
        failed = node.id.cluster
        self.tracer.protocol(
            "failure_detected", cluster=failed, node=node.id.node
        )
        targets = self.computed_line(failed)
        if self.round.collecting:
            # A failure cancels the in-flight round.  Participants that
            # will *not* roll back flush their freeze queues (their
            # timeline survives, so their queued sends must happen);
            # participants about to roll back are reset by the rollback.
            self.round.abort()
            for c in self.round_participants:
                if targets[c] is None:
                    for member in self.federation.clusters[c].nodes:
                        member.agent.unfreeze()
            self.round_participants = []
        self.roll_back_line(node, targets)

    def restore_cluster(self, cluster: int, record: Checkpoint) -> None:
        # Deliveries above the restored SN are erased with the state.
        self.upstream[cluster] = {
            src: sn for src, sn in self.upstream[cluster].items() if sn < record.number
        }
        self.record_cut(cluster, record.number, self.cluster_states[cluster].rollback_epoch)

    def after_line(self, targets: Sequence[Optional[int]]) -> None:
        # Survivors forget deliveries whose sends were just erased.
        for cluster, number in enumerate(targets):
            if number is None:
                self.upstream[cluster] = {
                    src: sn
                    for src, sn in self.upstream[cluster].items()
                    if survives(targets[src], sn)
                }

    def _complete_recovery(self, targets: list, failed_node: "Node") -> None:
        self.finish_recovery(targets, failed_node, self.timers_)

    # ------------------------------------------------------------------
    def cluster_summary(self, cluster: int) -> dict:
        st = self.cluster_states[cluster]
        return {
            "sn": st.sn,
            "clc_initial": self.clc_count(cluster, "initial"),
            "clc_unforced": self.clc_count(cluster, "timer"),
            "clc_forced": 0,
            "clc_total": self.clc_count(cluster, "total"),
            "clc_stored": len(st.checkpoints),
            "dependency_edges": self.edges_touching(cluster),
            "rollback_epoch": st.rollback_epoch,
        }


class MinProcAgent(FreezeAgent):
    """Per-node endpoint: (sn, epoch) piggyback, deferral inside rounds."""

    def stamp(self, msg: Message) -> None:
        msg.piggyback = Piggyback(sn=self.state.sn, epoch=self.state.rollback_epoch)
        msg.size += SN_PIGGYBACK_SIZE

    def on_inter_arrival(self, msg: Message) -> None:
        st = self.state
        piggy: Piggyback = msg.piggyback
        if self.protocol.is_ghost(msg.src.cluster, piggy):
            self.protocol.stats.counter("minproc/ghosts_dropped").inc()
            return
        if self.frozen or st.recovering:
            # Deliveries during a freeze window would land *inside* the
            # checkpoint being taken while the participant set was already
            # fixed; deferring them keeps every round's cut clean.
            self.deferred_in.append(msg)
            return
        self.protocol.record_delivery(msg.src.cluster, piggy.sn, st.index)
        self.node.deliver_app(msg)

    def reset_volatile(self) -> None:
        super().reset_volatile()
        self.drop_ghost_arrivals(self.protocol.is_ghost)

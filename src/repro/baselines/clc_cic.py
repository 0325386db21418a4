"""Logical-clock-driven communication-induced checkpointing (CIC).

The index-based CIC family of Garcia, Vieira & Buzato's rollback-history
survey (arXiv:1702.06167): clusters piggyback a Lamport-style checkpoint
index (logical clock) on inter-cluster messages, and the *forced-checkpoint
predicate* decides -- from the piggybacked clock alone -- whether a
checkpoint must be taken before delivery.  Two predicates from the
taxonomy are implemented, selected by ``protocol_options={"predicate": _}``:

``"bcs"``
    Briatico-Ciuffoletti-Simoncini: force a checkpoint (indexed ``m.lc``)
    whenever a message arrives with ``m.lc > lc`` -- the classic, safest
    member of the family.
``"bcs-aftersend"``
    the after-send refinement: force only when ``m.lc > lc`` *and* the
    cluster has sent an inter-cluster message since its last checkpoint;
    otherwise just adopt the larger clock without checkpointing (no
    send since the checkpoint means no Z-pattern can close through us).

Architecture mirrors HC3I's hierarchy -- intra-cluster two-phase commit,
sender-side optimistic logging of inter-cluster messages, rollback epochs
against ghosts -- but the DDV/SN dependency test is replaced by the logical
clock.  Recovery rolls the faulty cluster to its last checkpoint and runs
the *ghost-only* fixpoint (:func:`~repro.core.recovery_line.line_targets`
with ``propagate = {GHOST}``): receivers of erased sends roll back to the
forced checkpoint the predicate placed just before the delivery, and
in-transit messages are replayed from the sender logs instead of rolling
senders back.  How far that fixpoint descends is exactly what the
predicate controls, which is what the protocol tournament measures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.msglog import MessageLog
from repro.core.protocol import register_protocol
from repro.core.recovery_line import GHOST, GhostCuts
from repro.core.rounds import (
    CONTROL_SIZE,
    Checkpoint,
    FreezeAgent,
    LineClusterState,
    LineProtocol,
    TwoPhaseRound,
)
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["ClcCicProtocol"]

#: piggyback bytes on an inter-cluster application message (lc + ordinal + epoch)
PIGGYBACK_SIZE = 16

PREDICATES = ("bcs", "bcs-aftersend")


@dataclass(frozen=True)
class CicPiggyback:
    """(logical clock, checkpoint ordinal, rollback epoch) at send time."""

    lc: int
    ordinal: int
    epoch: int

    def entry_for(self, cluster: int) -> int:
        """What a rollback cut of the sender is compared against."""
        return self.ordinal


@dataclass(frozen=True)
class CicCheckpoint(Checkpoint):
    """One committed cluster checkpoint; ``number`` is the per-cluster
    ordinal (1, 2, ...)."""

    index: int                #: BCS logical-clock index (strictly increasing)
    cause: str                #: "initial" | "timer" | "forced"
    delivered_ids: frozenset  #: inter-cluster deliveries captured


class _CicClusterState(LineClusterState):
    """Shared per-cluster CIC state (``sn`` is the checkpoint ordinal)."""

    def __init__(self, index: int):
        super().__init__(index)
        self.lc = 0                       #: logical clock = last checkpoint index
        self.delivered_ids: set = set()
        self.sent_log = MessageLog(index)
        self.sent_since_ckpt = False
        # what the running round commits, and what the next one must serve
        self.round_cause = "timer"
        self.round_target = 0
        self.pending_request = False
        self.pending_cause = "timer"
        self.pending_target = 0

    def clear_pending(self) -> tuple:
        """Take the accumulated request: ``(cause, target)``."""
        request = (self.pending_cause, self.pending_target)
        self.pending_request = False
        self.pending_cause = "timer"
        self.pending_target = 0
        return request


@register_protocol("clc-cic")
class ClcCicProtocol(LineProtocol, GhostCuts):
    """Index-based CIC on the hierarchical substrate."""

    stats_prefix = "cic"
    rollback_cause = "ghost-line"
    #: in-transit messages replay from the sender logs: only ghosts propagate
    propagate = (GHOST,)

    def __init__(self, federation, options: Optional[dict] = None):
        LineProtocol.__init__(self, federation, options)
        # every cluster learns of a rollback cut in the same instant, so
        # one federation-wide table stands for the per-cluster copies
        GhostCuts.__init__(self, self.n_clusters)
        self.predicate = self.options.get("predicate", "bcs")
        if self.predicate not in PREDICATES:
            raise ValueError(
                f"unknown CIC predicate {self.predicate!r}; "
                f"choose from {PREDICATES}"
            )
        self.cluster_states = [_CicClusterState(i) for i in range(self.n_clusters)]
        #: the participant set of a round is one cluster (its leader coordinates)
        self.rounds = [
            TwoPhaseRound(functools.partial(self._commit, i))
            for i in range(self.n_clusters)
        ]
        self.timers_ = self.cluster_timers(self._timer_fired, "cic")

    # ------------------------------------------------------------------
    def make_agent(self, node: "Node") -> "CicAgent":
        cluster = node.id.cluster
        return CicAgent(self, node, self.rounds[cluster], self.cluster_states[cluster])

    def start(self) -> None:
        # Initial checkpoints commit directly at t=0 (nothing was delivered
        # yet), so a recovery line exists before the first 2PC completes.
        for i, st in enumerate(self.cluster_states):
            st.lc = 1
            st.record(CicCheckpoint(1, self.sim.now, 1, "initial", frozenset()))
            self.note_commit(i, "initial", lc=1)
        for timer in self.timers_:
            timer.start()

    def request_checkpoint(self, cluster: int) -> None:
        """Programmatic basic checkpoint (tests, examples)."""
        self._initiate(cluster, cause="timer")

    # ------------------------------------------------------------------
    # intra-cluster two-phase commit
    # ------------------------------------------------------------------
    def _timer_fired(self, cluster: int) -> None:
        st = self.cluster_states[cluster]
        if self.rounds[cluster].collecting or st.recovering or st.pending_request:
            return
        self._initiate(cluster, cause="timer")

    def _initiate(self, cluster: int, cause: str, target: int = 0) -> None:
        st = self.cluster_states[cluster]
        if st.recovering:
            return
        if self.rounds[cluster].collecting:
            # Accumulate; the immediately following round serves it.
            st.pending_request = True
            st.pending_target = max(st.pending_target, target)
            if cause == "forced":
                st.pending_cause = "forced"
            return
        st.round_cause = cause
        st.round_target = target
        runtime = self.federation.clusters[cluster]
        self.rounds[cluster].begin(runtime.leader, runtime.nodes)

    def _commit(self, cluster: int) -> None:
        st = self.cluster_states[cluster]
        st.lc = max(st.lc + 1, st.round_target)
        st.record(
            CicCheckpoint(
                number=st.sn + 1,
                time=self.sim.now,
                index=st.lc,
                cause=st.round_cause,
                delivered_ids=frozenset(st.delivered_ids),
            )
        )
        st.sent_since_ckpt = False
        self.note_commit(cluster, st.round_cause, lc=st.lc)
        self.note_stored(cluster)
        self.rounds[cluster].release()
        self.timers_[cluster].reset()
        if st.pending_request and not st.recovering:
            cause, target = st.clear_pending()
            self.sim.schedule(0.0, self._begin_if_pending, cluster, cause, target)

    def _begin_if_pending(self, cluster: int, cause: str, target: int) -> None:
        if not self.rounds[cluster].collecting:
            self._initiate(cluster, cause=cause, target=target)

    # ------------------------------------------------------------------
    # failure: ghost fixpoint + replay
    # ------------------------------------------------------------------
    def on_failure_detected(self, node: "Node") -> None:
        failed = node.id.cluster
        self.tracer.protocol(
            "failure_detected", cluster=failed, node=node.id.node
        )
        self.roll_back_line(node, self.computed_line(failed))

    def restore_cluster(self, cluster: int, record: CicCheckpoint) -> None:
        st = self.cluster_states[cluster]
        st.clear_pending()
        st.lc = record.index
        st.delivered_ids = set(record.delivered_ids)
        st.sent_since_ckpt = False
        st.sent_log.drop_sent_after(record.number)
        self.record_cut(cluster, record.number, st.rollback_epoch)

    def after_line(self, targets: Sequence[Optional[int]]) -> None:
        fed = self.federation
        # Survivors drop queued input whose sends were just erased.
        for cluster, number in enumerate(targets):
            if number is None:
                for node in fed.clusters[cluster].nodes:
                    node.agent.drop_ghost_input()
        # Replay surviving logged messages the rolled clusters lost; a
        # replayed message records a fresh edge when it is re-delivered.
        for cluster, number in enumerate(targets):
            if number is not None:
                self._replay_into(cluster, number)

    def _replay_into(self, dest: int, restored_ordinal: int) -> None:
        """Re-send surviving logged messages ``dest`` no longer has."""
        restored_ids = self.cluster_states[dest].delivered_ids
        for src_state in self.cluster_states:
            if src_state.index == dest:
                continue
            entries = src_state.sent_log.entries_to_replay(dest, restored_ordinal)
            for entry in entries:
                if entry.msg.msg_id in restored_ids:
                    continue
                sender = self.federation.node(entry.msg.src)
                if not sender.up:
                    continue
                entry.replays += 1
                self.stats.counter("rollback/replays").inc()
                self.federation.fabric.send(entry.msg.clone_for_replay())

    def _complete_recovery(self, targets: list, failed_node: "Node") -> None:
        self.finish_recovery(targets, failed_node, self.timers_)

    # ------------------------------------------------------------------
    def cluster_summary(self, cluster: int) -> dict:
        st = self.cluster_states[cluster]
        return {
            "sn": st.sn,
            "lc": st.lc,
            "clc_initial": self.clc_count(cluster, "initial"),
            "clc_unforced": self.clc_count(cluster, "timer"),
            "clc_forced": self.clc_count(cluster, "forced"),
            "clc_total": self.clc_count(cluster, "total"),
            "clc_stored": len(st.checkpoints),
            "log_entries": len(st.sent_log),
            "log_bytes": st.sent_log.bytes,
            "rollback_epoch": st.rollback_epoch,
        }


class CicAgent(FreezeAgent):
    """Per-node endpoint: clock piggyback, forced-CLC predicate, logging."""

    def __init__(self, protocol, node: "Node", round: TwoPhaseRound, state: _CicClusterState):
        super().__init__(protocol, node, round, state)
        #: messages whose forced checkpoint has not committed yet
        self.pending: list = []

    # -- sending ---------------------------------------------------------
    def stamp(self, msg: Message) -> None:
        st = self.state
        msg.piggyback = CicPiggyback(lc=st.lc, ordinal=st.sn, epoch=st.rollback_epoch)
        msg.size += PIGGYBACK_SIZE
        st.sent_log.add(msg, send_sn=st.sn)
        st.sent_since_ckpt = True
        self.protocol.stats.gauge(f"cic/c{st.index}/log_entries").set(
            len(st.sent_log)
        )

    # -- receiving ---------------------------------------------------------
    def on_force_request(self, payload: dict) -> None:
        self.protocol._initiate(
            self.state.index, cause="forced", target=payload.get("target", 0)
        )

    def on_inter_arrival(self, msg: Message) -> None:
        st = self.state
        piggy: CicPiggyback = msg.piggyback
        if self.protocol.is_ghost(msg.src.cluster, piggy):
            self.protocol.stats.counter("cic/ghosts_dropped").inc()
            return
        if self.frozen or st.recovering:
            self.deferred_in.append(msg)
            return
        if msg.msg_id in st.delivered_ids:
            self.protocol.stats.counter("cic/duplicates").inc()
            self._send_ack(msg)
            return
        if piggy.lc > st.lc:
            if self.protocol.predicate == "bcs-aftersend" and not st.sent_since_ckpt:
                # No send since the last checkpoint: adopting the clock
                # without a checkpoint cannot close a Z-pattern through us.
                st.lc = piggy.lc
                self.protocol.stats.counter("cic/forced_skipped").inc()
                self._deliver(msg)
                return
            # BCS: checkpoint (indexed m.lc) before delivery.
            self.pending.append((msg, piggy.lc))
            self.protocol.stats.counter("cic/forces_requested").inc()
            self.request_force({"target": piggy.lc}, CONTROL_SIZE)
            return
        self._deliver(msg)

    def _deliver(self, msg: Message) -> None:
        st = self.state
        st.delivered_ids.add(msg.msg_id)
        self.protocol.edges.append(
            (msg.src.cluster, msg.piggyback.ordinal, st.index, st.sn)
        )
        self.node.deliver_app(msg)
        self._send_ack(msg)

    def _send_ack(self, msg: Message) -> None:
        # ack_sn = ordinal of the first checkpoint that captures this
        # delivery; the replay filter compares it to the restored ordinal.
        self.ack_delivery(msg, self.state.sn + 1)

    def evaluate_pending(self) -> None:
        st = self.state
        still: list = []
        for msg, target in self.pending:
            if st.lc >= target:
                if msg.msg_id not in st.delivered_ids:
                    self._deliver(msg)
            else:
                still.append((msg, target))
        self.pending = still

    # -- failure bookkeeping ----------------------------------------------
    def drop_ghost_input(self) -> None:
        is_ghost = self.protocol.is_ghost
        self.pending = [
            (m, t) for m, t in self.pending
            if not is_ghost(m.src.cluster, m.piggyback)
        ]
        self.drop_ghost_arrivals(is_ghost)

    def reset_volatile(self) -> None:
        super().reset_volatile()
        self.deferred_in = []
        self.pending = []

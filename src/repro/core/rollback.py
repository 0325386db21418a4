"""Rollback and recovery (§3.4 of the paper).

Sequence on a node failure:

1. the failure detector reports the crash (detector itself is out of the
   paper's scope; ours is a fixed-latency oracle),
2. the faulty cluster rolls back to its **last** stored CLC; its new SN is
   the restored CLC's number,
3. one node in each other cluster receives a **rollback alert** carrying the
   faulty cluster's new SN (and rollback epoch) and re-broadcasts it inside
   its cluster,
4. an alerted cluster whose current DDV entry for the faulty cluster is
   ``>= alert SN`` rolls back to the **oldest** stored CLC whose entry is
   ``>= alert SN`` and emits its own alert (cascade: this computes the
   recovery line),
5. clusters -- rolled back or not -- re-send logged messages destined to the
   faulty cluster that were acknowledged with an SN greater than the alert
   SN, or never acknowledged.

The ablation ``replay_enabled=False`` replaces step 5 by rolling the
*sender* cluster back to before its earliest affected send, measuring how
much the sender-side log buys (§3.3: "We want to limit the number of
clusters that rollback").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.clc import CheckpointCause, CheckpointRecord
from repro.network.message import MessageKind, NodeId
from repro.sim.kernel import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.core.hc3i import Hc3iClusterState, Hc3iProtocol

__all__ = ["Hc3iRecoveryManager"]


class Hc3iRecoveryManager:
    """Event-driven rollback cascade for the HC3I protocol."""

    def __init__(self, protocol: "Hc3iProtocol"):
        self.protocol = protocol
        self._completion_events: dict = {}
        #: failures handled so far (for statistics / experiment bookkeeping)
        self.failures_handled = 0

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def on_failure_detected(self, node: "Node") -> None:
        """§3.4: "the cluster rolls back to its last stored CLC"."""
        cluster = node.id.cluster
        cs = self.protocol.cluster_states[cluster]
        target = cs.store.last()
        self.failures_handled += 1
        self.protocol.stats.counter("rollback/failures").inc()
        self.protocol.tracer.protocol(
            "failure_detected", cluster=cluster, node=node.id.node, target_sn=target.sn
        )
        self._do_rollback(cluster, target, failed_node=node)

    def on_alert(
        self, cluster: int, faulty: int, alert_sn: int, faulty_epoch: int
    ) -> None:
        """Handle a rollback alert received by ``cluster``."""
        protocol = self.protocol
        cs = protocol.cluster_states[cluster]
        cs.record_alert(faulty, alert_sn, faulty_epoch)
        protocol.stats.counter("rollback/alerts_received").inc()
        protocol.tracer.protocol(
            "alert_received", cluster=cluster, faulty=faulty, sn=alert_sn
        )

        # Inputs from the faulty cluster's erased epochs are ghosts now.
        protocol.coordinators[cluster].scrub(faulty, alert_sn)
        for node in protocol.federation.clusters[cluster].nodes:
            node.agent.drop_ghost_input(faulty)

        # Rollback check (on the *current* DDV, per §3.4).
        if cs.ddv[faulty] >= alert_sn:
            target = cs.store.find_rollback_target(faulty, alert_sn)
            if target is not None and not self._is_noop(cs, target):
                self._do_rollback(cluster, target)

        # Replay (or the no-log ablation) from whatever survived in the log.
        if protocol.options.replay_enabled:
            self._replay(cluster, faulty, alert_sn)
        else:
            self._rollback_instead_of_replay(cluster, faulty, alert_sn)

    # ------------------------------------------------------------------
    # rollback machinery
    # ------------------------------------------------------------------
    def _is_noop(self, cs: "Hc3iClusterState", target: CheckpointRecord) -> bool:
        """Would restoring ``target`` change nothing?  (Loop guard.)"""
        if cs.recovering and cs.restore_target_sn is not None:
            return target.sn >= cs.restore_target_sn
        return (
            not cs.state_dirty
            and cs.sn == target.sn
            and cs.store.last() is target
        )

    def _do_rollback(
        self,
        cluster: int,
        target: CheckpointRecord,
        failed_node: Optional["Node"] = None,
    ) -> None:
        protocol = self.protocol
        fed = protocol.federation
        cs = protocol.cluster_states[cluster]
        sim = protocol.sim
        from_sn = cs.sn

        # 1. Abort any in-flight two-phase commit.
        protocol.coordinators[cluster].abort()

        # 2. Collect the volatile per-node input queues before wiping them.
        agents = [node.agent for node in fed.clusters[cluster].nodes]
        live_msgs: dict = {}
        for agent in agents:
            for entry in agent.pending_force:
                live_msgs[entry.msg.msg_id] = entry.msg
            for msg in agent.deferred_in:
                live_msgs[msg.msg_id] = msg
            agent.pending_force = []
            agent.deferred_in = []
            agent.reset_volatile()
            # A rollback invalidates incremental-replica delta chains.
            agent.replicated_full = False

        # 3. Restore the shared cluster state from the target CLC.
        discarded = cs.store.discard_after(target)
        cs.sn = target.sn
        cs.ddv = list(target.ddv)
        cs.delivered_ids = set(target.delivered_ids)
        dropped_log = cs.sent_log.drop_sent_after(target.sn)
        cs.rollback_epoch += 1
        cs.known_epochs[cluster] = cs.rollback_epoch
        cs.state_dirty = False
        cs.recovering = True
        cs.restore_target_sn = target.sn

        # 4. Re-queue the inter-cluster messages saved inside the CLC --
        #    except those whose send a peer rollback has erased meanwhile
        #    (they are ghosts now; delivering them from the restored queue
        #    would resurrect an unsent message).
        requeued = set()
        for node_idx, entry in target.queued:
            if entry.msg.msg_id in requeued or entry.msg.msg_id in cs.delivered_ids:
                continue
            if cs.is_ghost(entry.msg.src.cluster, entry.msg.piggyback):
                protocol.stats.counter("hc3i/ghosts_dropped").inc()
                continue
            agents[node_idx].pending_force.append(entry)
            requeued.add(entry.msg.msg_id)

        # 5. Received-but-unrecorded messages get re-examined from scratch
        #    once recovery completes (fresh ack/force decision).
        for msg_id, msg in live_msgs.items():
            if msg_id in requeued or msg_id in cs.delivered_ids:
                continue
            agents[msg.dst.node].deferred_in.append(msg)

        # 6. Application impact: interrupt processes, account lost work.
        fed.on_cluster_rollback(cluster, target.time, failed_node)

        # 7. Statistics / trace.
        protocol.stats.counter(f"rollback/c{cluster}/count").inc()
        protocol.stats.counter("rollback/total").inc()
        protocol.stats.counter("rollback/clcs_discarded").inc(discarded)
        protocol.stats.counter("rollback/log_entries_dropped").inc(dropped_log)
        protocol.stats.gauge(f"clc/c{cluster}/stored").set(len(cs.store))
        protocol.tracer.protocol(
            "rollback",
            cluster=cluster,
            to_sn=target.sn,
            from_sn=from_sn,
            discarded=discarded,
            epoch=cs.rollback_epoch,
            failed=failed_node.id.node if failed_node is not None else None,
        )

        # 8. Alert every other cluster (one node each, §3.4).  The sender
        #    must be a live node -- the crashed one may be the leader.
        runtime = fed.clusters[cluster]
        sender = next((n for n in runtime.nodes if n.up), runtime.leader)
        size = protocol.options.control_size
        for d in range(fed.topology.n_clusters):
            if d == cluster:
                continue
            sender.send_raw(
                NodeId(d, 0),
                MessageKind.ALERT,
                size=size,
                payload={"faulty": cluster, "sn": target.sn, "epoch": cs.rollback_epoch},
            )
            protocol.stats.counter("rollback/alerts_sent").inc()

        # 9. Schedule the end of the restore.
        timers = fed.timers
        delay = timers.checkpoint_restore_time
        if failed_node is not None:
            # The crashed node must be repaired, then fetch its state back
            # from the neighbour holding the replica (stable storage).
            fetch = fed.topology.delay(
                failed_node.id, failed_node.id, timers.node_state_size
            )
            delay += timers.node_repair_time + fetch
        prev: Optional[Event] = self._completion_events.get(cluster)
        if prev is not None:
            sim.cancel(prev)
        self._completion_events[cluster] = sim.schedule(
            delay, self._complete_recovery, cluster
        )

    def _complete_recovery(self, cluster: int) -> None:
        protocol = self.protocol
        fed = protocol.federation
        cs = protocol.cluster_states[cluster]
        self._completion_events.pop(cluster, None)
        cs.recovering = False
        cs.restore_target_sn = None

        # Bring crashed nodes back (flushes their buffered input).
        for node in fed.clusters[cluster].nodes:
            if not node.up:
                node.recover()

        # Deliver restored queued messages that the restored DDV already
        # covers; re-request a forced CLC for the rest.
        combined: dict = {}
        force_any = False
        agents = [node.agent for node in fed.clusters[cluster].nodes]
        for agent in agents:
            agent.evaluate_pending()
            for entry in agent.pending_force:
                for i, v in entry.updates.items():
                    if v > cs.ddv[i] and v > combined.get(i, -1):
                        combined[i] = v
                force_any = force_any or entry.force_required
        if combined or force_any:
            protocol.coordinators[cluster].initiate(
                CheckpointCause.FORCED, updates=combined, force=force_any
            )
        for agent in agents:
            agent.process_deferred()

        fed.restart_cluster_apps(cluster)
        protocol.coordinators[cluster].timer.reset()
        protocol.tracer.protocol("recovery_complete", cluster=cluster, sn=cs.sn)
        fed.notify_recovery_complete(cluster)

    # ------------------------------------------------------------------
    # replays
    # ------------------------------------------------------------------
    def _replay(self, cluster: int, faulty: int, alert_sn: int) -> None:
        protocol = self.protocol
        cs = protocol.cluster_states[cluster]
        # "log searches" appear at the paper's highest trace level
        protocol.tracer.debug(
            "log_search", cluster=cluster, dest=faulty, alert_sn=alert_sn,
            entries=len(cs.sent_log),
        )
        entries = cs.sent_log.entries_to_replay(faulty, alert_sn)
        for entry in entries:
            entry.ack_sn = None
            entry.replays += 1
            replay = entry.msg.clone_for_replay()
            protocol.federation.fabric.send(replay)
            protocol.stats.counter("rollback/replays").inc()
        if entries:
            protocol.tracer.protocol(
                "replayed", cluster=cluster, dest=faulty, count=len(entries)
            )

    def _rollback_instead_of_replay(
        self, cluster: int, faulty: int, alert_sn: int
    ) -> None:
        """Ablation: no sender-side replay, so the sender rolls back far
        enough that re-execution regenerates the affected messages."""
        protocol = self.protocol
        cs = protocol.cluster_states[cluster]
        entries = cs.sent_log.entries_to_replay(faulty, alert_sn)
        if not entries:
            return
        min_send = min(e.send_sn for e in entries)
        target = None
        for record in cs.store:
            if record.sn <= min_send:
                target = record
            else:
                break
        if target is None or self._is_noop(cs, target):
            return
        protocol.stats.counter("rollback/no_log_forced").inc()
        self._do_rollback(cluster, target)

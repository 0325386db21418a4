"""Garbage collection of CLCs and logged messages (§3.5).

The paper's centralized collector:

1. the initiator asks one node in each cluster for "its list of all the
   DDVs associated with the stored CLCs",
2. it "simulates a failure in each cluster and keeps the smallest SN to
   which the clusters of the federation might rollback"
   (:func:`repro.core.recovery_line.compute_min_sns`),
3. it sends the vector of smallest SNs to one node per cluster, which
   broadcasts it inside its cluster,
4. each node removes CLCs whose own-cluster SN is below the bound, and
   logged messages acknowledged below the receiver cluster's bound.

Per-round network cost (§5.4): N-1 inter-cluster requests, N-1 responses
(carrying the DDV lists), N-1 collect messages, plus one broadcast inside
each cluster -- the fabric counts all of them.

The initiator is always cluster 0's leader.  The paper's §7 "more
distributed" collector is future work there and is not modelled here.

Safety: a response carries the responding cluster's *rollback epoch*; the
collect message echoes the epoch vector and every cluster cross-checks it
against the alerts it has seen before pruning.  A GC round that raced a
rollback is simply skipped (counted in ``gc/skipped``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.recovery_line import compute_min_sns
from repro.core.rounds import CONTROL_SIZE
from repro.network.message import Message, MessageKind, NodeId
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.core.hc3i import Hc3iProtocol

__all__ = ["GarbageCollector"]

#: the cluster whose leader starts every round
INITIATOR_CLUSTER = 0


class GarbageCollector:
    """The paper's centralized collector (the initiator gathers all)."""

    def __init__(self, protocol: "Hc3iProtocol"):
        self.protocol = protocol
        self.timer = PeriodicTimer(
            protocol.sim, protocol.federation.timers.gc_period, self._timer_fired, name="gc"
        )
        self.rounds_started = 0
        self.rounds_completed = 0
        self._round_id = 0
        self._responses: Optional[dict] = None

    def start(self) -> None:
        self.timer.start()

    def _timer_fired(self) -> None:
        self.collect_now()

    # ------------------------------------------------------------------
    def _response_payload(self, cluster: int) -> dict:
        cs = self.protocol.cluster_states[cluster]
        return {
            "cluster": cluster,
            "epoch": cs.rollback_epoch,
            "current_ddv": cs.ddv_tuple(),
            "ddvs": cs.store.ddv_list(),
        }

    def _response_size(self, payload: dict) -> int:
        n = self.protocol.federation.topology.n_clusters
        return CONTROL_SIZE + 8 * n * (len(payload["ddvs"]) + 1)

    def _compute_min_sns(self, responses: dict) -> list:
        n = self.protocol.federation.topology.n_clusters
        stored = [responses[c]["ddvs"] for c in range(n)]
        current = [responses[c]["current_ddv"] for c in range(n)]
        return compute_min_sns(stored, current)

    def _apply_collect(self, cluster: int, min_sns: list, epochs: list) -> None:
        protocol = self.protocol
        cs = protocol.cluster_states[cluster]
        stats = protocol.stats

        # Epoch cross-check: skip if any cluster rolled back since it
        # contributed its DDV list (its data -- and therefore the bounds --
        # are stale).
        known = list(cs.known_epochs)
        known[cluster] = cs.rollback_epoch
        if list(epochs) != known:
            stats.counter("gc/skipped").inc()
            protocol.tracer.protocol("gc_skipped", cluster=cluster)
            return

        # Intra-cluster fan-out of the bounds (network accounting).
        fed = protocol.federation
        leader = fed.clusters[cluster].leader
        size = CONTROL_SIZE + 8 * len(min_sns)
        for node in fed.clusters[cluster].nodes:
            if node.id != leader.id:
                leader.send_raw(node.id, MessageKind.GC_LOCAL, size=size)

        before = len(cs.store)
        removed = cs.store.prune(min_sns[cluster])
        log_removed = cs.sent_log.prune(min_sns)
        after = len(cs.store)
        now = protocol.sim.now
        # "Needed" log entries: those a worst-case failure of their
        # destination would replay right now (unacked, or acked above the
        # destination's smallest reachable SN).  This is the quantity the
        # paper's §5.4 reports as "the maximum number of logged messages"
        # (4 in its sample): entries kept only because the GC prune rule
        # is conservative do not count.
        needed = sum(
            1
            for e in cs.sent_log
            if e.ack_sn is None or e.ack_sn > min_sns[e.dest_cluster]
        )
        stats.series(f"gc/c{cluster}/log_needed").record(now, needed)
        stats.series(f"gc/c{cluster}/before").record(now, before)
        stats.series(f"gc/c{cluster}/after").record(now, after)
        stats.counter("gc/clcs_removed").inc(removed)
        stats.counter("gc/log_entries_removed").inc(log_removed)
        stats.gauge(f"clc/c{cluster}/stored").set(after)
        stats.gauge(f"clc/c{cluster}/stored_bytes").set(cs.store.total_state_bytes())
        protocol.tracer.protocol(
            "gc_prune",
            cluster=cluster,
            before=before,
            after=after,
            min_sn=min_sns[cluster],
            log_removed=log_removed,
        )

    def _leader_id(self, cluster: int) -> NodeId:
        return NodeId(cluster, 0)

    def collect_now(self) -> None:
        """Start a round (periodic, or on demand for memory pressure)."""
        if self._responses is not None:
            return  # previous round still in flight
        cs = self.protocol.cluster_states[INITIATOR_CLUSTER]
        if cs.recovering:
            return
        self._round_id += 1
        self.rounds_started += 1
        self._responses = {}
        fed = self.protocol.federation
        leader = fed.clusters[INITIATOR_CLUSTER].leader
        self.protocol.tracer.protocol("gc_round", round=self._round_id)
        for d in range(fed.topology.n_clusters):
            if d == INITIATOR_CLUSTER:
                self._responses[d] = self._response_payload(d)
            else:
                leader.send_raw(
                    self._leader_id(d),
                    MessageKind.GC_REQUEST,
                    size=CONTROL_SIZE,
                    payload={"round": self._round_id},
                )
        self._maybe_finish()

    def on_message(self, node: "Node", msg: Message) -> None:
        kind = msg.kind
        if kind is MessageKind.GC_REQUEST:
            payload = self._response_payload(node.id.cluster)
            node.send_raw(
                msg.src,
                MessageKind.GC_RESPONSE,
                size=self._response_size(payload),
                payload={"round": msg.payload["round"], "data": payload},
            )
        elif kind is MessageKind.GC_RESPONSE:
            if self._responses is None or msg.payload["round"] != self._round_id:
                return  # stale response
            data = msg.payload["data"]
            self._responses[data["cluster"]] = data
            self._maybe_finish()
        elif kind is MessageKind.GC_COLLECT:
            self._apply_collect(
                node.id.cluster, msg.payload["min_sns"], msg.payload["epochs"]
            )
        elif kind is MessageKind.GC_LOCAL:
            pass  # intra-cluster fan-out, accounting only

    def _maybe_finish(self) -> None:
        fed = self.protocol.federation
        n = fed.topology.n_clusters
        assert self._responses is not None
        if len(self._responses) < n:
            return
        responses, self._responses = self._responses, None
        min_sns = self._compute_min_sns(responses)
        epochs = [responses[c]["epoch"] for c in range(n)]
        self.rounds_completed += 1
        leader = fed.clusters[INITIATOR_CLUSTER].leader
        size = CONTROL_SIZE + 16 * n
        for d in range(n):
            if d == INITIATOR_CLUSTER:
                self._apply_collect(d, min_sns, epochs)
            else:
                leader.send_raw(
                    self._leader_id(d),
                    MessageKind.GC_COLLECT,
                    size=size,
                    payload={"min_sns": min_sns, "epochs": epochs},
                )

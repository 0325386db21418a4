"""The checkpointing toolkit shared by every protocol family.

The paper's cluster level is a single mechanism (§3.1): "An initiator node
broadcasts (in its cluster) a CLC request.  All the cluster nodes
acknowledge the request, then the initiator node broadcasts a commit.
Between the request and the commit messages, application messages are
queued."  HC3I and four of its rivals run exactly that
(:class:`TwoPhaseRound`, :class:`FreezeAgent`); what distinguishes a family
is only

* its **participant set** -- one cluster, the closure of entangled
  clusters, or the whole federation,
* its **piggyback** on inter-cluster application messages,
* its **forced-checkpoint predicate** on their arrival, and
* which **inconsistency direction propagates** when the recovery line is
  computed at rollback time (:func:`repro.core.recovery_line.line_targets`)
  and executed in one step (:class:`LineProtocol`).  HC3I's alert-driven
  cascade (:mod:`repro.core.rollback`) discovers its line instead.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Collection, Optional, Sequence

from repro.core.protocol import BaseProtocol, NodeAgent
from repro.core.recovery_line import Edge, line_targets, survives
from repro.network.message import Message, MessageKind, NodeId
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation
    from repro.cluster.node import ClusterRuntime, Node

__all__ = [
    "CONTROL_SIZE",
    "Checkpoint",
    "FreezeAgent",
    "LineClusterState",
    "LineProtocol",
    "TwoPhaseRound",
    "recovery_delay",
    "replicate_state",
]

#: base size in bytes of a protocol control message
CONTROL_SIZE = 64

# The kinds this module sends and tests per message, as module globals:
# ``MessageKind.X`` is a metaclass attribute lookup, several times the cost
# of a global on the per-message path.  Identity tests are safe across
# snapshots: enum members unpickle to the same singletons.
_APP = MessageKind.APP
_REPLAY = MessageKind.REPLAY
_CLC_REQUEST = MessageKind.CLC_REQUEST
_CLC_ACK = MessageKind.CLC_ACK
_CLC_COMMIT = MessageKind.CLC_COMMIT
_CLC_INITIATE = MessageKind.CLC_INITIATE
_REPLICA = MessageKind.REPLICA
_INTER_ACK = MessageKind.INTER_ACK


def replicate_state(cluster: "ClusterRuntime", node: "Node", size: int, degree: int = 1) -> None:
    """Stable storage: copy ``node``'s state to its ``degree`` ring successors."""
    nodes = cluster.nodes
    n = len(nodes)
    for k in range(1, min(degree, n - 1) + 1):
        node.send_raw(nodes[(node.id.node + k) % n].id, _REPLICA, size=size)


def recovery_delay(federation: "Federation", failed_node: "Node") -> float:
    """Restore the checkpoint, repair the crashed node, then fetch its state
    back from the neighbour holding the replica (stable storage)."""
    timers = federation.timers
    delay: float = timers.checkpoint_restore_time + timers.node_repair_time
    delay += federation.topology.delay(
        failed_node.id, failed_node.id, timers.node_state_size
    )
    return delay


class TwoPhaseRound:
    """One two-phase commit at a time over a set of participant nodes.

    ``begin`` freezes the leader locally and broadcasts the request; every
    participant's :class:`FreezeAgent` freezes, saves its state and
    acknowledges; when the ack set is complete ``on_commit()`` runs -- the
    family records its checkpoint there and calls :meth:`release`, which
    broadcasts the commit and unfreezes the leader.  A rollback calls
    :meth:`abort`; acknowledgements that arrive while idle are ignored.
    """

    IDLE = "idle"
    COLLECTING = "collecting"

    def __init__(
        self,
        on_commit: Callable[[], None],
        commit_size: int = CONTROL_SIZE,
    ) -> None:
        self.on_commit = on_commit
        self.commit_size = commit_size
        self.phase = self.IDLE
        self.initiator: Optional["Node"] = None
        #: participant nodes other than the leader, in request order
        self.others: list["Node"] = []
        self.acks_pending: set[NodeId] = set()
        #: acknowledgements of the current round, in arrival order
        self.acks: list[Message] = []

    @property
    def collecting(self) -> bool:
        return self.phase == self.COLLECTING

    def begin(self, leader: "Node", nodes: Sequence["Node"]) -> None:
        """Phase 1: the leader participates locally, then asks everyone else."""
        self.phase = self.COLLECTING
        self.initiator = leader
        self.others = [n for n in nodes if n.id != leader.id]
        agent = leader.agent
        assert isinstance(agent, FreezeAgent)
        agent.freeze()
        agent.save_state()
        self.acks_pending = {n.id for n in self.others}
        for n in self.others:
            leader.send_raw(n.id, _CLC_REQUEST, size=CONTROL_SIZE)
        if not self.acks_pending:
            self._complete()

    def on_ack(self, msg: Message) -> None:
        if self.phase != self.COLLECTING or msg.src not in self.acks_pending:
            return  # stale ack from an aborted round
        self.acks_pending.discard(msg.src)
        self.acks.append(msg)
        if not self.acks_pending:
            self._complete()

    def _complete(self) -> None:
        self.phase = self.IDLE
        self.on_commit()
        self.acks = []  # do not pin a round's messages until the next one

    def release(self, payload: Optional[dict] = None) -> None:
        """Phase 2: commit broadcast; the leader applies locally right away."""
        leader = self.initiator
        assert leader is not None
        for n in self.others:
            leader.send_raw(
                n.id, _CLC_COMMIT, size=self.commit_size, payload=payload
            )
        agent = leader.agent
        assert isinstance(agent, FreezeAgent)
        agent.unfreeze()

    def abort(self) -> None:
        """A rollback cancels the in-flight round."""
        self.phase = self.IDLE
        self.acks_pending = set()
        self.acks = []


class FreezeAgent(NodeAgent):
    """Per-node endpoint of a round-running family.

    Subclasses supply the family's piggyback (:meth:`stamp`) and what
    happens when an inter-cluster application message arrives
    (:meth:`on_inter_arrival`: ghost test, dependency tracking,
    forced-checkpoint predicate).
    """

    def __init__(
        self, protocol: BaseProtocol, node: "Node", round: TwoPhaseRound, state: Any
    ) -> None:
        super().__init__(protocol, node)
        #: the round engine this node takes part in
        self.round = round
        #: shared protocol state of the node's cluster; ``state.recovering``
        #: gates traffic like a freeze window does
        self.state = state
        #: between request and commit: application messages are queued
        self.frozen = False
        #: application sends queued during a freeze window or a recovery
        self.queued_out: list[tuple[NodeId, int, Optional[dict]]] = []
        #: inter-cluster arrivals deferred (freeze window or recovery)
        self.deferred_in: list[Message] = []

    # -- sending ---------------------------------------------------------
    def app_send(self, dst: NodeId, size: int, payload: Optional[dict] = None) -> None:
        if not self.node.up:
            return  # fail-stop: a failed node sends nothing
        if self.frozen or self.state.recovering:
            self.queued_out.append((dst, size, payload))
            return
        self.send_now(dst, size, payload)

    def send_now(self, dst: NodeId, size: int, payload: Optional[dict]) -> None:
        fabric = self.protocol.federation.fabric
        msg_id = fabric.next_msg_id
        fabric.next_msg_id = msg_id + 1
        msg = Message(self.node.id, dst, _APP, size, payload, None, msg_id)
        if dst.cluster != self.node.id.cluster:
            self.stamp(msg)
        fabric.send(msg)

    def stamp(self, msg: Message) -> None:
        """An inter-cluster application message is about to leave: add the
        family's piggyback (and its bytes to ``msg.size``), log the send."""

    # -- receiving -------------------------------------------------------
    def on_receive(self, msg: Message) -> None:
        # Tested in measured frequency order: at paper scale the four kinds
        # of a checkpoint round are each 2.5x as frequent as application
        # messages (92% of the traffic of the section 5 evaluation is 2PC).
        kind = msg.kind
        if kind is _CLC_REQUEST:
            self.freeze()
            self.save_state()
            self.node.send_raw(
                msg.src, _CLC_ACK, CONTROL_SIZE, self.ack_payload()
            )
        elif kind is _CLC_ACK:
            self.round.on_ack(msg)
        elif kind is _CLC_COMMIT:
            self.unfreeze()
        elif kind is _REPLICA:
            pass  # accounted by the fabric; content is abstract state
        elif kind is _APP or kind is _REPLAY:
            if msg.src.cluster != msg.dst.cluster:
                self.on_inter_arrival(msg)
            else:
                # Deliveries during the freeze window amend the saved state.
                self.node.deliver_app(msg)
        elif kind is _INTER_ACK:
            # sender-side log: the receiver says which checkpoint captures it
            self.state.sent_log.ack(msg.payload["msg_id"], msg.payload["ack_sn"])
        elif kind is _CLC_INITIATE:
            self.on_force_request(msg.payload)
        else:
            self.on_control(msg)

    @abc.abstractmethod
    def on_inter_arrival(self, msg: Message) -> None:
        """An inter-cluster application message (or replay) arrived."""

    def on_control(self, msg: Message) -> None:
        """Control traffic the toolkit does not know (alerts, garbage collection)."""
        raise ValueError(f"{self.protocol.name} cannot handle {msg.kind}")

    def request_force(self, payload: dict, size: int) -> None:
        """Ask the cluster's leader to force a checkpoint before a delivery."""
        leader = self.protocol.federation.clusters[self.node.id.cluster].leader
        if self.node.id == leader.id:
            self.on_force_request(payload)
        else:
            self.node.send_raw(
                leader.id, _CLC_INITIATE, size=size, payload=payload
            )

    def on_force_request(self, payload: dict) -> None:
        """At the leader: a node of the cluster asked for a forced checkpoint."""
        raise ValueError(f"{self.protocol.name} forces no checkpoints")

    def ack_delivery(self, msg: Message, ack_sn: int) -> None:
        """Tell the sender's log which checkpoint first captures ``msg``."""
        self.node.send_raw(
            msg.src,
            _INTER_ACK,
            size=CONTROL_SIZE,
            payload={"msg_id": msg.msg_id, "ack_sn": ack_sn},
        )

    # -- 2PC participant -------------------------------------------------
    def freeze(self) -> None:
        self.frozen = True

    def save_state(self) -> None:
        fed = self.protocol.federation
        replicate_state(
            fed.clusters[self.node.id.cluster], self.node, fed.timers.node_state_size
        )

    def ack_payload(self) -> Optional[dict]:
        """What this participant reports to the round's leader."""
        return None

    def unfreeze(self) -> None:
        """The round committed: flush queued sends, resume deliveries."""
        self.frozen = False
        queued, self.queued_out = self.queued_out, []
        for dst, size, payload in queued:
            self.send_now(dst, size, payload)
        self.evaluate_pending()
        self.process_deferred()

    def evaluate_pending(self) -> None:
        """Deliver arrivals whose forced checkpoint has just committed."""

    def process_deferred(self) -> None:
        while self.deferred_in and not self.frozen and not self.state.recovering:
            self.on_inter_arrival(self.deferred_in.pop(0))

    # -- failure bookkeeping ---------------------------------------------
    def drop_ghost_arrivals(self, is_ghost: Callable[[int, Any], bool]) -> None:
        """Forget deferred arrivals whose sends a rollback just erased."""
        self.deferred_in = [
            m for m in self.deferred_in if not is_ghost(m.src.cluster, m.piggyback)
        ]

    def on_node_failed(self) -> None:
        # Volatile state of the crashed node is lost; its queued output
        # and frozen round membership die with it.
        self.frozen = False
        self.queued_out = []

    def reset_volatile(self) -> None:
        """The node's cluster rolls back: the freeze window and the queued
        output of every node belong to the erased timeline."""
        self.on_node_failed()


@dataclass(frozen=True)
class Checkpoint:
    """One committed checkpoint of a cluster (or of the whole federation)."""

    number: int
    time: float


class LineClusterState:
    """Checkpoint history of one cluster, for recovery lines computed at
    rollback time."""

    def __init__(self, index: int) -> None:
        self.index = index
        #: number of the newest checkpoint (interval ``sn`` is running)
        self.sn = 0
        self.checkpoints: list[Any] = []
        #: cluster is mid-recovery: traffic is queued / deferred
        self.recovering = False
        #: incremented on every rollback of this cluster (incarnation number)
        self.rollback_epoch = 0

    def record(self, checkpoint: Any) -> None:
        self.sn = checkpoint.number
        self.checkpoints.append(checkpoint)

    def restore(self, number: int) -> Any:
        """Roll back to checkpoint ``number``; 0 (a domino past every
        checkpoint) restarts from the initial one, which captures the
        application's starting state."""
        number = number or self.checkpoints[0].number
        self.checkpoints = [c for c in self.checkpoints if c.number <= number]
        self.sn = number
        self.recovering = True
        self.rollback_epoch += 1
        return self.checkpoints[-1]


class LineProtocol(BaseProtocol):
    """A family that executes a whole recovery line when a failure is
    detected: every cluster on the line rolls back in the same instant."""

    #: prefix of the family's own statistics (``<prefix>/rollback_depth``)
    stats_prefix = "line"
    #: ``cause`` field of the family's ``rollback`` trace records
    rollback_cause = "line"
    #: inconsistency directions that lower a cluster (see ``line_targets``)
    propagate: Collection[str] = ()

    def __init__(self, federation: "Federation", options: Optional[dict] = None) -> None:
        super().__init__(federation, options)
        self.n_clusters: int = federation.topology.n_clusters
        self.rounds: list[TwoPhaseRound] = []
        #: message dependency records (src, send_sn, dst, recv_sn)
        self.edges: list[Edge] = []

    def cluster_timers(self, action: Callable[[int], None], prefix: str) -> list[PeriodicTimer]:
        """One checkpoint timer per cluster, firing ``action(cluster)``."""
        return [
            PeriodicTimer(
                self.sim,
                self.federation.timers.clc_period_for(i),
                functools.partial(action, i),
                name=f"{prefix}-c{i}",
            )
            for i in range(self.n_clusters)
        ]

    def edges_touching(self, cluster: int) -> int:
        return sum(1 for e in self.edges if e[0] == cluster or e[2] == cluster)

    # -- commit side -----------------------------------------------------
    def note_commit(self, cluster: int, cause: str, **fields: Any) -> None:
        self.stats.counter(f"clc/c{cluster}/{cause}").inc()
        self.stats.counter(f"clc/c{cluster}/total").inc()
        sn = self.cluster_states[cluster].sn
        self.tracer.protocol("clc_commit", cluster=cluster, sn=sn, cause=cause, **fields)

    def note_stored(self, cluster: int) -> None:
        stored = len(self.cluster_states[cluster].checkpoints)
        self.stats.gauge(f"clc/c{cluster}/stored").set(stored)

    # -- rollback side ---------------------------------------------------
    def computed_line(self, failed: int) -> list[Optional[int]]:
        """The recovery line for a failure in cluster ``failed``."""
        numbers = [[c.number for c in st.checkpoints] for st in self.cluster_states]
        return line_targets(numbers, self.edges, failed, self.propagate)

    def roll_back_line(self, failed_node: "Node", targets: Sequence[Optional[int]]) -> None:
        """Roll every cluster with a target back to that checkpoint number."""
        fed = self.federation
        failed = failed_node.id.cluster
        self.stats.counter("rollback/failures").inc()
        rolled = 0
        for cluster, number in enumerate(targets):
            if number is None:
                continue
            rolled += 1
            st = self.cluster_states[cluster]
            from_sn = st.sn
            record = st.restore(number)
            self.stats.counter("rollback/total").inc()
            self.note_rollback(cluster, from_sn - record.number)
            self.rounds[cluster].abort()
            self.restore_cluster(cluster, record)
            for node in fed.clusters[cluster].nodes:
                assert isinstance(node.agent, FreezeAgent)
                node.agent.reset_volatile()
            fed.on_cluster_rollback(
                cluster, record.time, failed_node if cluster == failed else None
            )
        self.stats.counter("rollback/clusters_rolled").inc(rolled)
        # Drop dependency records that reference erased epochs (a target of
        # 0 erases everything the cluster ever sent or received).
        self.edges = [
            e for e in self.edges
            if survives(targets[e[0]], e[1]) and survives(targets[e[2]], e[3])
        ]
        self.after_line(targets)
        # The family's own ``_complete_recovery`` ends the restore.
        self.sim.schedule(
            recovery_delay(fed, failed_node), self._complete_recovery, targets, failed_node
        )

    def note_rollback(self, cluster: int, depth: int) -> None:
        self.stats.tally(f"{self.stats_prefix}/rollback_depth").record(depth)
        self.note_stored(cluster)
        self.tracer.protocol(
            "rollback", cluster=cluster, to_sn=self.cluster_states[cluster].sn,
            cause=self.rollback_cause,
        )

    @abc.abstractmethod
    def restore_cluster(self, cluster: int, record: Any) -> None:
        """Family state of a cluster that just rolled back to ``record``:
        remember the ghost cut or window, restore whatever the checkpoint
        captured."""

    def after_line(self, targets: Sequence[Optional[int]]) -> None:
        """Every cluster on the line has rolled back (replays, survivors)."""

    @abc.abstractmethod
    def _complete_recovery(self, targets: list, failed_node: "Node") -> None:
        """Scheduled by :meth:`roll_back_line`; defined per family."""

    def finish_recovery(
        self, targets: Sequence[Optional[int]], failed_node: "Node", timers: Sequence[Any]
    ) -> None:
        """End of the restore: the crashed node rejoins, rolled clusters
        resume their application, timers and deferred input."""
        fed = self.federation
        if not failed_node.up:
            failed_node.recover()
        rolled = [c for c, number in enumerate(targets) if number is not None]
        for cluster in rolled:
            self.cluster_states[cluster].recovering = False
            fed.restart_cluster_apps(cluster)
            fed.notify_recovery_complete(cluster)
            timers[cluster].reset()
        for cluster in rolled:
            for node in fed.clusters[cluster].nodes:
                assert isinstance(node.agent, FreezeAgent)
                node.agent.process_deferred()

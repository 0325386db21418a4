"""Pessimistic message-logging baseline (MPICH-V style).

§6: "MPICH-V ... All the communications are logged and can be replayed.
This avoids all dependencies so that a faulty node will rollback, but not
the others.  But this means that strong assumptions upon determinism have
to be made."

The model grants the piecewise-deterministic (PWD) assumption by fiat --
the paper's point is the *cost* of this approach, not its feasibility:

* every application message (intra- and inter-cluster) is copied to a log
  (``pessimistic/log_bytes``, ``pessimistic/log_messages``); the paper's
  MPICH-V uses remote "channel memories", modelled here as one extra copy
  hop to the receiver node's logging neighbour,
* nodes checkpoint *individually* (no coordination at all) on the cluster
  period, staggered per node,
* on a failure only the crashed node rolls back to its own last local
  checkpoint and replays its logged input
  (``rollback/nodes_rolled`` = 1 per failure; compare HC3I's whole-cluster
  rollback and the baselines' whole-federation/domino rollbacks).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.protocol import BaseProtocol, NodeAgent, register_protocol
from repro.core.rounds import recovery_delay, replicate_state
from repro.network.message import Message, MessageKind, NodeId
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["PessimisticLogProtocol"]

_APP = MessageKind.APP
_REPLAY = MessageKind.REPLAY
_REPLICA = MessageKind.REPLICA


@register_protocol("pessimistic-log")
class PessimisticLogProtocol(BaseProtocol):
    """Log everything; roll back only the crashed node."""

    def __init__(self, federation, options: Optional[dict] = None):
        super().__init__(federation, options)
        self._agents: dict = {}
        #: per-node replay cost in seconds per logged message
        self.replay_cost = float(self.options.get("replay_cost", 1e-4))

    def make_agent(self, node: "Node") -> "PessimisticAgent":
        agent = PessimisticAgent(self, node)
        self._agents[node.id] = agent
        return agent

    def start(self) -> None:
        for agent in self._agents.values():
            agent.start()

    def on_failure_detected(self, node: "Node") -> None:
        agent = self._agents[node.id]
        fed = self.federation
        self.stats.counter("rollback/failures").inc()
        self.stats.counter("rollback/total").inc()
        self.stats.counter("rollback/nodes_rolled").inc()
        lost = fed.sim.now - agent.last_checkpoint_time
        self.stats.tally("rollback/lost_work").record(lost)
        self.tracer.protocol(
            "node_rollback",
            cluster=node.id.cluster,
            node=node.id.node,
            replayed=agent.received_since_checkpoint,
        )
        delay = recovery_delay(fed, node)
        delay += agent.received_since_checkpoint * self.replay_cost
        self.sim.schedule(delay, self._complete_recovery, node)

    def _complete_recovery(self, node: "Node") -> None:
        fed = self.federation
        agent = self._agents[node.id]
        agent.received_since_checkpoint = 0
        if not node.up:
            node.recover()
        # Only the failed node re-executes; everyone else kept running.
        if node.app_process is None or not node.app_process.alive:
            if fed.sim.now < fed.application.total_time:
                fed._start_app(node)
        fed.notify_recovery_complete(node.id.cluster)
        self.tracer.protocol("node_recovery_complete", node=str(node.id))

    def cluster_summary(self, cluster: int) -> dict:
        fed = self.federation
        agents = [
            self._agents[n.id] for n in fed.clusters[cluster].nodes
        ]
        return {
            "clc_total": sum(a.checkpoints for a in agents),
            "clc_forced": 0,
            "clc_unforced": sum(max(0, a.checkpoints - 1) for a in agents),
            "clc_initial": len(agents),
            "clc_stored": len(agents),  # each node keeps its last checkpoint
            "log_messages": sum(a.logged_messages for a in agents),
            "log_bytes": sum(a.logged_bytes for a in agents),
        }


class PessimisticAgent(NodeAgent):
    """Per-node endpoint: uncoordinated checkpoints + receiver-side log."""

    def __init__(self, protocol: PessimisticLogProtocol, node: "Node"):
        super().__init__(protocol, node)
        self.protocol: PessimisticLogProtocol = protocol
        self.checkpoints = 0
        self.last_checkpoint_time = 0.0
        self.received_since_checkpoint = 0
        self.logged_messages = 0
        self.logged_bytes = 0
        #: the pessimistic/log_messages and log_bytes counters, opened by
        #: the first logged message
        self._log_counters: Optional[tuple] = None
        period = protocol.federation.timers.clc_period_for(node.id.cluster)
        self.timer = PeriodicTimer(
            protocol.sim, period, self._checkpoint, name=f"pess-{node.id}"
        )

    def start(self) -> None:
        self._checkpoint()  # initial local checkpoint at t=0
        if self.timer.enabled:
            # Stagger nodes so the cluster never checkpoints in lockstep.
            stream = self.protocol.federation.streams.stream(f"pess/{self.node.id}")
            assert self.timer.period is not None
            offset = stream.uniform(0, self.timer.period)
            self.protocol.sim.schedule(offset, self.timer.start)

    def _checkpoint(self) -> None:
        if not self.node.up:
            return
        self.checkpoints += 1
        self.last_checkpoint_time = self.protocol.sim.now
        self.received_since_checkpoint = 0
        self.protocol.stats.counter(
            f"clc/c{self.node.id.cluster}/total"
        ).inc()
        # Stable storage: the local state goes to the ring successor.
        fed = self.protocol.federation
        replicate_state(
            fed.clusters[self.node.id.cluster], self.node, fed.timers.node_state_size
        )

    # -- traffic -----------------------------------------------------------
    def app_send(self, dst: NodeId, size: int, payload: Optional[dict] = None) -> None:
        if not self.node.up:
            return
        fabric = self.protocol.federation.fabric
        msg_id = fabric.next_msg_id
        fabric.next_msg_id = msg_id + 1
        fabric.send(Message(self.node.id, dst, _APP, size, payload, None, msg_id))

    def on_receive(self, msg: Message) -> None:
        kind = msg.kind
        if kind is _APP or kind is _REPLAY:
            # Channel-memory logging: every received message is persisted
            # before delivery (pessimistic: the send blocks on the log in
            # real MPICH-V; the copy itself is local here).
            self.logged_messages += 1
            self.logged_bytes += msg.size
            self.received_since_checkpoint += 1
            counters = self._log_counters
            if counters is None:
                stats = self.protocol.stats
                counters = self._log_counters = (
                    stats.counter("pessimistic/log_messages"),
                    stats.counter("pessimistic/log_bytes"),
                )
            log_messages, log_bytes = counters
            log_messages.value += 1
            log_bytes.value += msg.size
            self.node.deliver_app(msg)
        elif kind is _REPLICA:
            pass
        else:  # pragma: no cover - defensive
            raise ValueError(f"pessimistic-log cannot handle {kind}")

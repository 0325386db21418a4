"""Nodes and cluster runtimes.

A :class:`Node` is the paper's system-level module (Figure 2): "it is able
to save the processes states, to catch every inter-processes message, and to
communicate with other nodes for protocol needs".  The protocol-specific
behaviour lives in the attached :class:`~repro.core.protocol.NodeAgent`; the
node handles fail-stop mechanics (a down node neither sends nor processes,
and buffers the input its agent wants to see after recovery).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.network.message import Message, MessageKind, NodeId
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.protocol import NodeAgent
    from repro.network.fabric import Fabric
    from repro.sim.process import Process

__all__ = ["ClusterRuntime", "Node"]


class Node:
    """One machine of the federation."""

    def __init__(self, node_id: NodeId, sim: Simulator, fabric: "Fabric"):
        self.id = node_id
        self.sim = sim
        self.fabric = fabric
        self.up = True
        #: protocol endpoint; set by the federation builder
        self.agent: Optional["NodeAgent"] = None
        #: application-level inbox callback (may stay None: delivery is then
        #: only counted)
        self.app_sink: Optional[Callable[[Message], None]] = None
        #: the application process currently running on this node
        self.app_process: Optional["Process"] = None
        #: messages that arrived while down and must be seen after recovery
        self._held: list = []
        #: statistics hook (set by the federation builder)
        self._stats = None
        #: this node's app/delivered/c{i} counter, opened by the first delivery
        self._delivered = None
        self.failures = 0
        self.fabric.register(node_id, self._on_fabric_delivery)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send_app(self, dst: NodeId, size: int, payload: Optional[dict] = None) -> None:
        """Application send; the protocol agent mediates (piggyback/queue)."""
        if not self.up:
            return
        assert self.agent is not None, "node has no protocol agent"
        self.agent.app_send(dst, size, payload)

    def send_raw(
        self,
        dst: NodeId,
        kind: MessageKind,
        size: int,
        payload: Optional[dict] = None,
        piggyback=None,
    ) -> Optional[Message]:
        """Protocol-level send (control traffic); no interception."""
        if not self.up:
            return None
        fabric = self.fabric
        msg_id = fabric.next_msg_id
        fabric.next_msg_id = msg_id + 1
        msg = Message(self.id, dst, kind, size, payload, piggyback, msg_id)
        fabric.send(msg)
        return msg

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_fabric_delivery(self, msg: Message) -> None:
        agent = self.agent
        assert agent is not None
        if not self.up:
            if agent.buffer_while_down(msg):
                self._held.append(msg)
            return
        agent.on_receive(msg)

    def deliver_app(self, msg: Message) -> None:
        """Hand a message to the application layer."""
        if self._stats is not None:
            delivered = self._delivered
            if delivered is None:
                delivered = self._delivered = self._stats.counter(
                    f"app/delivered/c{self.id.cluster}"
                )
            delivered.value += 1
        if self.app_sink is not None:
            self.app_sink(msg)

    # ------------------------------------------------------------------
    # fail-stop lifecycle
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash (fail-stop): "when a node fails it will not send messages
        anymore" (§2.1)."""
        if not self.up:
            return
        self.up = False
        self.failures += 1
        if self.app_process is not None and self.app_process.alive:
            self.app_process.interrupt(cause="node-failure")
        assert self.agent is not None
        self.agent.on_node_failed()

    def recover(self) -> None:
        """Rejoin after the cluster rollback restored this node's state."""
        if self.up:
            return
        self.up = True
        assert self.agent is not None
        self.agent.on_node_recovered()
        held, self._held = self._held, []
        for msg in held:
            self.agent.on_receive(msg)

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.up else "down"
        return f"<Node {self.id} {state}>"


class ClusterRuntime:
    """The nodes of one cluster plus cluster-wide runtime helpers."""

    def __init__(self, index: int, nodes: list):
        self.index = index
        self.nodes: list[Node] = nodes

    @property
    def leader(self) -> Node:
        """The designated initiator node of this cluster (node 0)."""
        return self.nodes[0]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def node(self, idx: int) -> Node:
        return self.nodes[idx]

    def __iter__(self):
        return iter(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ClusterRuntime c{self.index} n={len(self.nodes)}>"

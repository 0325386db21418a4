"""Protocol-agnostic interfaces.

The federation builder (:mod:`repro.cluster.federation`) instantiates a
checkpointing protocol by name; HC3I and every baseline implement the same
small surface so experiments can swap them with a string:

* :class:`BaseProtocol` -- one object per federation; owns per-cluster
  protocol state and builds one :class:`NodeAgent` per node,
* :class:`NodeAgent` -- receives every message addressed to its node and
  mediates application sends (piggybacking, freezing, queueing),
* :class:`ClusterView` -- the shared per-cluster protocol state (SN, DDV,
  CLC store, sender log).

Modelling note: SN, DDV and the CLC store are *shared objects* per cluster
rather than per-node copies.  The paper guarantees that "outside the
two-phase commit protocol" all nodes of a cluster agree on them (§3.1), and
the agents only read them outside freeze windows, so sharing is
behaviourally equivalent while keeping the simulator fast.  All protocol
*traffic* (requests, acks, commits, replicas, alerts, GC rounds) still
travels through the network fabric and is counted and delayed normally.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Optional

from repro.config.keys import refuse_unknown_keys
from repro.core.clc import ClcStore
from repro.core.msglog import MessageLog
from repro.network.message import Message, NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation
    from repro.cluster.node import Node

__all__ = [
    "BaseProtocol",
    "ClusterView",
    "NodeAgent",
    "make_protocol",
    "protocol_names",
    "register_protocol",
]


class ClusterView:
    """Shared per-cluster protocol state."""

    def __init__(self, index: int, n_clusters: int):
        self.index = index
        self.n_clusters = n_clusters
        self.sn = 0
        self.ddv = [0] * n_clusters
        self.store = ClcStore(index)
        self.sent_log = MessageLog(index)
        #: ids of inter-cluster application messages delivered so far
        self.delivered_ids: set = set()
        #: incremented on every rollback of this cluster (incarnation number)
        self.rollback_epoch = 0
        #: False right after a restore until any commit/delivery progresses
        self.state_dirty = False
        #: cluster is mid-recovery: inter-cluster input is deferred
        self.recovering = False

    def ddv_tuple(self) -> tuple:
        return tuple(self.ddv)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ClusterView c{self.index} sn={self.sn} ddv={self.ddv}>"


class NodeAgent(abc.ABC):
    """Per-node protocol endpoint."""

    def __init__(self, protocol: "BaseProtocol", node: "Node"):
        self.protocol = protocol
        self.node = node

    @abc.abstractmethod
    def app_send(self, dst: NodeId, size: int, payload: Optional[dict] = None) -> None:
        """The application asks to send a message (may be queued/frozen)."""

    @abc.abstractmethod
    def on_receive(self, msg: Message) -> None:
        """A message arrived from the fabric while the node is up."""

    def buffer_while_down(self, msg: Message) -> bool:
        """Should this arrival be kept and handled when the node recovers?

        Default: keep everything except intra-cluster application traffic
        (which the post-rollback re-execution regenerates) and checkpoint
        2PC control traffic (the round is aborted by the rollback anyway).
        """
        from repro.network.message import MessageKind

        if msg.kind in (
            MessageKind.CLC_REQUEST,
            MessageKind.CLC_ACK,
            MessageKind.CLC_COMMIT,
            MessageKind.CLC_INITIATE,
            MessageKind.REPLICA,
        ):
            return False
        if msg.kind.is_app and not msg.inter_cluster:
            return False
        return True

    def on_node_failed(self) -> None:
        """Local bookkeeping when this node crashes (fail-stop)."""

    def on_node_recovered(self) -> None:
        """Local bookkeeping when this node is restored after a rollback."""


class BaseProtocol(abc.ABC):
    """A checkpoint/recovery protocol driving a federation."""

    #: registry name; subclasses set it
    name: str = "base"
    #: the ``protocol_options`` keys this family reads; any other is refused
    option_keys: frozenset = frozenset()

    def __init__(self, federation: "Federation", options: Optional[dict] = None):
        self.federation = federation
        self.options = dict(options or {})
        refuse_unknown_keys(f"{self.name} protocol_options", self.options, self.option_keys)
        #: per-cluster protocol state, under this one name on every family
        #: (entries may be shared between clusters; a family that keeps
        #: none -- ``pessimistic-log`` -- leaves it empty)
        self.cluster_states: list = []

    # -- construction ---------------------------------------------------
    @abc.abstractmethod
    def make_agent(self, node: "Node") -> NodeAgent:
        """Create the per-node agent (called once per node by the builder)."""

    @abc.abstractmethod
    def start(self) -> None:
        """Schedule protocol activity at t=0 (initial checkpoints, timers)."""

    # -- failure path ---------------------------------------------------
    @abc.abstractmethod
    def on_failure_detected(self, node: "Node") -> None:
        """The failure detector reports a crashed node."""

    # -- introspection ---------------------------------------------------
    def cluster_summary(self, cluster: int) -> dict:
        """Protocol-specific per-cluster numbers for reports (override)."""
        return {}

    def clc_count(self, cluster: int, name: str) -> int:
        """``clc/c<cluster>/<name>`` counter; 0 when nothing was counted yet."""
        full = f"clc/c{cluster}/{name}"
        return self.stats.counter(full).value if full in self.stats else 0

    @property
    def sim(self):
        return self.federation.sim

    @property
    def stats(self):
        return self.federation.stats

    @property
    def tracer(self):
        return self.federation.tracer


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[..., BaseProtocol]] = {}


def register_protocol(name: str):
    """Class decorator adding a protocol to the by-name registry."""

    def deco(cls):
        if name in _REGISTRY:
            raise ValueError(f"protocol {name!r} registered twice")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def check_protocol_name(name: str) -> None:
    """Refuse a name no protocol family is registered under."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown protocol {name!r}; available: {sorted(_REGISTRY)}")


def make_protocol(name: str, federation: "Federation", options: Optional[dict] = None) -> BaseProtocol:
    check_protocol_name(name)
    return _REGISTRY[name](federation, options)


def protocol_names() -> list:
    return sorted(_REGISTRY)

"""Message transport between nodes.

The fabric is the system-level layer of Figure 2 of the paper: every
inter-process message is *caught* here, which is what lets the protocol
piggyback sequence numbers, queue messages during a checkpoint and count
traffic.  Delivery is reliable ("a sent message will be received in an
arbitrary but finite lapse of time") with per-channel FIFO ordering.

Statistics recorded per message:

* ``net/app/c{i}->c{j}`` -- application message counts per cluster pair
  (Table 1 of the paper),
* ``net/protocol/{kind}`` -- protocol message counts per kind,
* ``net/protocol_inter`` -- protocol messages that crossed clusters,
* ``net/bytes/app`` / ``net/bytes/protocol`` -- byte volumes.

:meth:`Fabric.send` runs once per message -- by far the busiest non-kernel
path in the system -- so everything per-send is O(1) dict hits on caches
built lazily the first time a (kind, cluster-pair, link) is seen: counter
objects are resolved once instead of re-formatting their registry names per
message, and link specs are resolved once per cluster pair.  Laziness
matters for behavior, not just startup cost: metrics must spring into
existence exactly when the first matching message is sent, as the paper
tables (and ``FederationResults.stats``) only contain rows for traffic that
actually happened.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.network.message import Message, MessageKind, NodeId
from repro.network.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import TraceLevel, Tracer

__all__ = ["Fabric"]

Receiver = Callable[[Message], None]


class Fabric:
    """Routes messages between registered nodes with modelled delays."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        stats: StatsRegistry,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.stats = stats
        self.tracer = tracer
        self._receivers: dict[NodeId, Receiver] = {}
        self._last_arrival: dict[tuple[NodeId, NodeId], float] = {}
        # lazily-built per-send caches (see module docstring)
        self._links: dict = {}           # (src_cluster, dst_cluster) -> LinkSpec
        self._bytes_counters: dict = {}  # MessageKind -> Counter net/bytes/kind/*
        self._app_counters: dict = {}    # (src_cluster, dst_cluster) -> Counter
        self._proto_counters: dict = {}  # MessageKind -> Counter net/protocol/*
        self._bytes_app = None
        self._bytes_protocol = None
        self._protocol_inter = None
        self._replays = None

    # ------------------------------------------------------------------
    def register(self, node_id: NodeId, receiver: Receiver) -> None:
        """Attach the receive callback of a node."""
        self.topology.validate_node(node_id)
        if node_id in self._receivers:
            raise ValueError(f"node {node_id} registered twice")
        self._receivers[node_id] = receiver

    def send(self, msg: Message) -> float:
        """Inject a message; returns its scheduled arrival time.

        The arrival time is ``now + latency + size/bandwidth``, pushed later
        if necessary to preserve FIFO order on the (src, dst) channel.
        """
        dst = msg.dst
        if dst not in self._receivers:
            raise ValueError(f"message to unregistered node {dst}")
        sim = self.sim
        now = sim.now
        msg.send_time = now
        src = msg.src
        pair = (src.cluster, dst.cluster)
        link = self._links.get(pair)
        if link is None:
            link = self._links[pair] = self.topology.link_between(*pair)
        # inlined LinkSpec.transfer_delay; the parenthesization must match
        # the original two-step now + transfer_delay(...) computation so
        # arrival times stay bit-identical (float addition isn't associative)
        arrival = now + (link.latency + (msg.size * 8.0) / link.bandwidth)
        chan = (src, dst)
        last = self._last_arrival
        prev = last.get(chan)
        if prev is not None and arrival < prev:
            arrival = prev
        last[chan] = arrival
        self._account(msg)
        sim.schedule_at(arrival, self._deliver, msg)
        return arrival

    # ------------------------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        tracer = self.tracer
        if (
            tracer is not None
            and tracer.level >= TraceLevel.MESSAGE
            and msg.kind.is_app
        ):
            tracer.message(
                "deliver",
                msg_id=msg.msg_id,
                src=str(msg.src),
                dst=str(msg.dst),
                msg_kind=msg.kind.value,
            )
        self._receivers[msg.dst](msg)

    def _account(self, msg: Message) -> None:
        kind = msg.kind
        size = msg.size
        counter = self._bytes_counters.get(kind)
        if counter is None:
            counter = self._bytes_counters[kind] = self.stats.counter(
                f"net/bytes/kind/{kind.value}"
            )
        counter.inc(size)
        if kind is MessageKind.APP:
            pair = (msg.src.cluster, msg.dst.cluster)
            counter = self._app_counters.get(pair)
            if counter is None:
                counter = self._app_counters[pair] = self.stats.counter(
                    f"net/app/c{pair[0]}->c{pair[1]}"
                )
            counter.inc()
            if self._bytes_app is None:
                self._bytes_app = self.stats.counter("net/bytes/app")
            self._bytes_app.inc(size)
        elif kind is MessageKind.REPLAY:
            # Replays are re-deliveries of already-counted sends: they are
            # tracked separately so Table-1 style matrices stay clean.
            if self._replays is None:
                self._replays = self.stats.counter("net/replays")
            self._replays.inc()
            if self._bytes_app is None:
                self._bytes_app = self.stats.counter("net/bytes/app")
            self._bytes_app.inc(size)
        else:
            counter = self._proto_counters.get(kind)
            if counter is None:
                counter = self._proto_counters[kind] = self.stats.counter(
                    f"net/protocol/{kind.value}"
                )
            counter.inc()
            if self._bytes_protocol is None:
                self._bytes_protocol = self.stats.counter("net/bytes/protocol")
            self._bytes_protocol.inc(size)
            if msg.src.cluster != msg.dst.cluster:
                if self._protocol_inter is None:
                    self._protocol_inter = self.stats.counter("net/protocol_inter")
                self._protocol_inter.inc()
        tracer = self.tracer
        if (
            tracer is not None
            and tracer.level >= TraceLevel.MESSAGE
            and (kind is MessageKind.APP or kind is MessageKind.REPLAY)
        ):
            tracer.message(
                "send",
                msg_id=msg.msg_id,
                src=str(msg.src),
                dst=str(msg.dst),
                msg_kind=kind.value,
                piggyback=msg.piggyback,
            )

    # ------------------------------------------------------------------
    def app_message_count(self, src_cluster: int, dst_cluster: int) -> int:
        """Application messages sent from one cluster to another (Table 1)."""
        name = f"net/app/c{src_cluster}->c{dst_cluster}"
        return self.stats.counter(name).value if name in self.stats else 0

    def app_message_matrix(self) -> dict[tuple[int, int], int]:
        """Full cluster-pair application message count matrix."""
        n = self.topology.n_clusters
        return {
            (i, j): self.app_message_count(i, j)
            for i in range(n)
            for j in range(n)
        }

    def protocol_message_count(self, kind: Optional[MessageKind] = None) -> int:
        """Protocol message count, optionally for a single kind."""
        if kind is not None:
            name = f"net/protocol/{kind.value}"
            return self.stats.counter(name).value if name in self.stats else 0
        total = 0
        for k in MessageKind:
            if not k.is_app:
                total += self.protocol_message_count(k)
        return total

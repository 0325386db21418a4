"""Message transport between nodes.

The fabric is the system-level layer of Figure 2 of the paper: every
inter-process message is *caught* here, which is what lets the protocol
piggyback sequence numbers, queue messages during a checkpoint and count
traffic.  Delivery is reliable ("a sent message will be received in an
arbitrary but finite lapse of time") with per-channel FIFO ordering.

Statistics recorded per message:

* ``net/app/c{i}->c{j}`` -- application message counts per cluster pair
  (Table 1 of the paper); ``net/replays`` for re-sent logged messages,
* ``net/protocol/{kind}`` -- protocol message counts per kind,
* ``net/protocol_inter`` -- protocol messages that crossed clusters,
* ``net/bytes/kind/{kind}``, ``net/bytes/app`` / ``net/bytes/protocol`` --
  byte volumes.

:meth:`Fabric.send` runs once per message -- by far the busiest non-kernel
path in the system -- so it does no name formatting, no registry lookup and
no hashing beyond the receiver and FIFO-channel dicts (whose
:class:`~repro.network.message.NodeId` keys hash in C).  Two flat lists,
for ``n`` clusters, carry everything else:

* ``_links[src_cluster * n + dst_cluster]`` is the pair's
  ``(latency, bandwidth)``, filled at construction;
* ``_cells[kind.index * n * n + src_cluster * n + dst_cluster]`` is the
  *cell* of such a message: the tuple of live
  :class:`~repro.sim.stats.Counter` objects it moves -- its count, its
  ``net/bytes/kind/*``, its ``net/bytes/app|protocol`` and, for protocol
  traffic that crosses clusters, ``net/protocol_inter`` (else ``None``) --
  which ``send`` bumps inline.

Cells are opened lazily, by name, on the first such message, and the
laziness is behaviour, not start-up cost: metrics must spring into
existence exactly when the first matching message is sent, as the paper
tables (and ``FederationResults.stats``) only contain rows for traffic that
actually happened.  The counters in a cell *are* the registry's, so every
``stats.counter("net/...")`` read is current and a snapshot restores cells
and registry as one object graph.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.network.message import Message, MessageKind, NodeId
from repro.network.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.stats import Counter, StatsRegistry
from repro.sim.trace import TraceLevel, Tracer

__all__ = ["Fabric"]

Receiver = Callable[[Message], None]
#: (count, net/bytes/kind/*, net/bytes/app|protocol, net/protocol_inter or None)
Cell = tuple[Counter, Counter, Counter, Optional[Counter]]

_APP = MessageKind.APP
_REPLAY = MessageKind.REPLAY
_MESSAGE = int(TraceLevel.MESSAGE)


class Fabric:
    """Routes messages between registered nodes with modelled delays."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        stats: StatsRegistry,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.stats = stats
        self.tracer = tracer
        self._receivers: dict[NodeId, Receiver] = {}
        self._last_arrival: dict[tuple[NodeId, NodeId], float] = {}
        n = self._n = topology.n_clusters
        links = (topology.link_between(a, b) for a in range(n) for b in range(n))
        self._links = [(link.latency, link.bandwidth) for link in links]
        self._cells: list[Optional[Cell]] = [None] * (len(MessageKind) * n * n)
        #: the ``msg_id`` of the next message built to be sent here.  The
        #: federation's whole id space is this one int: senders read and
        #: bump it inline as they build a :class:`Message` (no call), it
        #: pickles with the fabric, so a restored run numbers on from where
        #: the snapshot stopped and a run's ids never depend on what else
        #: the process has sent
        self.next_msg_id = 1

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
        size = msg.size
        if size < 0:
            # refused before any state moves: the counters below are bumped
            # inline, where a negative size would be a silent decrement
            raise ValueError(f"message with negative size: {msg!r}")
        sim = self.sim
        now = sim.now
        msg.send_time = now
        src = msg.src
        kind = msg.kind
        n = self._n
        pair = src.cluster * n + dst.cluster
        latency, bandwidth = self._links[pair]
        # LinkSpec.transfer_delay, inlined; the division and the
        # parenthesization must stay exactly these so arrival times are
        # bit-identical (float addition isn't associative, and
        # size * (8 / bandwidth) differs from (size * 8.0) / bandwidth by
        # an ulp for about a fifth of all sizes)
        arrival = now + (latency + (size * 8.0) / bandwidth)
        chan = (src, dst)
        last = self._last_arrival
        prev = last.get(chan)
        if prev is not None and arrival < prev:
            arrival = prev
        last[chan] = arrival
        slot = kind.index * n * n + pair
        cell = self._cells[slot]
        if cell is None:
            cell = self._cells[slot] = self._open_cell(kind, src.cluster, dst.cluster)
        count, kind_bytes, class_bytes, inter = cell
        count.value += 1
        kind_bytes.value += size
        class_bytes.value += size
        if inter is not None:
            inter.value += 1
        tracer = self.tracer
        if (
            tracer is not None
            and tracer.level >= _MESSAGE
            and (kind is _APP or kind is _REPLAY)
        ):
            tracer.message(
                "send",
                msg_id=msg.msg_id,
                src=str(src),
                dst=str(dst),
                msg_kind=kind.value,
                piggyback=msg.piggyback,
            )
        sim.schedule_at(arrival, self._deliver, msg)
        return arrival

    # ------------------------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.level >= _MESSAGE and msg.kind.is_app:
            tracer.message(
                "deliver",
                msg_id=msg.msg_id,
                src=str(msg.src),
                dst=str(msg.dst),
                msg_kind=msg.kind.value,
            )
        self._receivers[msg.dst](msg)

    def _open_cell(self, kind: MessageKind, src_cluster: int, dst_cluster: int) -> Cell:
        """Resolve by name the counters a message of this kind and cluster
        pair moves (once: ``send`` keeps the result in ``_cells``)."""
        counter = self.stats.counter
        kind_bytes = counter(f"net/bytes/kind/{kind.value}")
        inter = None
        if kind is _APP:
            count = counter(f"net/app/c{src_cluster}->c{dst_cluster}")
            class_bytes = counter("net/bytes/app")
        elif kind is _REPLAY:
            # Replays are re-deliveries of already-counted sends: they are
            # tracked separately so Table-1 style matrices stay clean.
            count = counter("net/replays")
            class_bytes = counter("net/bytes/app")
        else:
            count = counter(f"net/protocol/{kind.value}")
            class_bytes = counter("net/bytes/protocol")
            if src_cluster != dst_cluster:
                inter = counter("net/protocol_inter")
        return count, kind_bytes, class_bytes, inter

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

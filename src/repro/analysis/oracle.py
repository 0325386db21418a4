"""The consistency oracle: is this run's surviving timeline consistent?

The paper's §2.2 definition of a consistent state -- "neither in-transit
messages (sent but not received) nor ghost-messages (received but not
sent)" -- is checked here from the *outside*: the oracle records every
inter-cluster application send, every application delivery and every
rollback the protocol performs, then replays the recovery lines against
the message trace.  Nothing the judged protocol keeps for itself
(``delivered_ids``, epochs, ghost cuts) is consulted for the verdict, so
the same oracle locks down HC3I, every baseline and any future family on
the :mod:`repro.core.protocol` contract.

Timeline model
--------------

A rollback of cluster ``c`` to ``target_time`` at simulation time ``now``
*erases* every event that happened on ``c`` in the closed interval
``[target_time, now]``: sends from an erased interval never happened in
the surviving timeline, deliveries in it are forgotten with the discarded
state.  (Protocols report exactly these two numbers through
``Federation.on_cluster_rollback``, which the oracle wraps.)

The interval is closed on the *left* because a checkpoint's content is
fixed the moment its commit is recorded: events stamped at exactly the
commit instant -- deliveries of messages queued for a forced CLC, sends
flushed out of a freeze window -- are causally *after* the commit and are
not part of the restored state.  This matches HC3I's own ghost test,
which treats a send stamped with ``sn >= restored_sn`` as erased.

Checked invariants, on the surviving timeline only:

* **no orphan (ghost)** -- a delivery survives but every send of that
  message was erased: the receiver remembers a message nobody sent;
* **no duplicate** -- one message id delivered more than once (replays
  must be deduplicated against deliveries the restored state still
  contains);
* **no lost message (in-transit)** -- a send survives but no delivery
  does, and the message is not still in flight, not queued/deferred/held
  anywhere at the receiver, and not re-producible from a sender-side
  message log.  Logged messages count as re-producible -- HC3I's own
  relaxation of the in-transit rule (§4: sender-side logging).

Before the replay, :func:`check_invariants` runs as a quiescence
pre-check on the HC3I family's SN/DDV/store state; what it finds is
reported as violations of kind ``invariant``.

Usage::

    fed = Federation(...)
    oracle = attach_oracle(fed)   # BEFORE fed.start()
    ... run, inject failures ...
    report = assert_consistent(fed, oracle)

``hc3i-sim`` attaches the oracle to every run and prints the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

from repro.core.hc3i import Hc3iProtocol
from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation
    from repro.cluster.node import Node

__all__ = [
    "ConsistencyOracle",
    "ConsistencyReport",
    "DeliveryEvent",
    "SendEvent",
    "assert_consistent",
    "attach_oracle",
    "check_invariants",
]


@dataclass(frozen=True)
class SendEvent:
    """One inter-cluster application send observed at the fabric."""

    msg_id: int
    time: float
    src_cluster: int
    dst_cluster: int
    arrival: float
    kind: str


@dataclass(frozen=True)
class DeliveryEvent:
    """One inter-cluster application delivery observed at a node."""

    msg_id: int
    time: float
    cluster: int
    node: str
    kind: str


@dataclass
class ConsistencyReport:
    """Verdict of a consistency check."""

    violations: list[tuple[str, str]] = field(default_factory=list)
    messages: int = 0
    delivered: int = 0
    in_flight: int = 0
    queued: int = 0
    replayable: int = 0
    erasures: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append((kind, detail))

    def __str__(self) -> str:
        if self.ok:
            return (
                f"consistent: {self.messages} messages "
                f"({self.delivered} delivered, {self.in_flight} in flight, "
                f"{self.queued} queued, {self.replayable} replayable) "
                f"across {self.erasures} rollback erasures"
            )
        lines = [f"INCONSISTENT ({len(self.violations)} violations):"]
        lines += [f"  [{kind}] {detail}" for kind, detail in self.violations]
        return "\n".join(lines)


class ConsistencyOracle:
    """Records sends/deliveries/rollbacks of a federation and checks them.

    Install with :func:`attach_oracle` *before* ``fed.start()`` so the
    initial protocol activity is captured too.  The oracle wraps
    ``fed.fabric.send``, every node's ``deliver_app`` and
    ``fed.on_cluster_rollback`` with recording shims; the wrapped
    behaviour is unchanged, so an instrumented run is trace-identical to
    a bare one.
    """

    def __init__(self, federation: "Federation") -> None:
        self.federation = federation
        #: msg_id -> [SendEvent] (replays re-send under the same id)
        self.sends: dict[int, list[SendEvent]] = {}
        #: msg_id -> [DeliveryEvent]
        self.deliveries: dict[int, list[DeliveryEvent]] = {}
        #: cluster -> [(erased_after, erased_until)]
        self.erasure_windows: dict[int, list[tuple[float, float]]] = {}
        self._install()

    # -- recording shims -------------------------------------------------
    def _install(self) -> None:
        fed = self.federation
        fabric = fed.fabric
        fabric_send = fabric.send

        def send_shim(msg: Message) -> float:
            arrival = fabric_send(msg)
            if msg.kind.is_app and msg.inter_cluster:
                self.sends.setdefault(msg.msg_id, []).append(
                    SendEvent(
                        msg_id=msg.msg_id,
                        time=fed.sim.now,
                        src_cluster=msg.src.cluster,
                        dst_cluster=msg.dst.cluster,
                        arrival=arrival,
                        kind=msg.kind.value,
                    )
                )
            return arrival

        fabric.send = send_shim  # type: ignore[method-assign]

        for cluster in fed.clusters:
            for node in cluster.nodes:
                self._wrap_node(node)

        rollback = fed.on_cluster_rollback

        def rollback_shim(
            cluster: int, target_time: float, failed_node: Optional["Node"] = None
        ) -> None:
            self.erasure_windows.setdefault(cluster, []).append(
                (target_time, fed.sim.now)
            )
            rollback(cluster, target_time, failed_node)

        fed.on_cluster_rollback = rollback_shim  # type: ignore[method-assign]

    def _wrap_node(self, node: "Node") -> None:
        deliver = node.deliver_app

        def deliver_shim(msg: Message) -> None:
            if msg.kind.is_app and msg.inter_cluster:
                self.deliveries.setdefault(msg.msg_id, []).append(
                    DeliveryEvent(
                        msg_id=msg.msg_id,
                        time=self.federation.sim.now,
                        cluster=node.id.cluster,
                        node=str(node.id),
                        kind=msg.kind.value,
                    )
                )
            deliver(msg)

        node.deliver_app = deliver_shim  # type: ignore[method-assign]

    # -- timeline --------------------------------------------------------
    def erased(self, cluster: int, t: float) -> bool:
        """Did a later rollback of ``cluster`` erase an event at ``t``?"""
        return any(
            target <= t <= until
            for target, until in self.erasure_windows.get(cluster, ())
        )

    def surviving_sends(self, msg_id: int) -> list[SendEvent]:
        return [
            s
            for s in self.sends.get(msg_id, ())
            if not self.erased(s.src_cluster, s.time)
        ]

    def surviving_deliveries(self, msg_id: int) -> list[DeliveryEvent]:
        return [
            d
            for d in self.deliveries.get(msg_id, ())
            if not self.erased(d.cluster, d.time)
        ]

    # -- the check -------------------------------------------------------
    def check(self, allow_in_flight: bool = True) -> ConsistencyReport:
        """Replay the recovery lines against the recorded trace.

        :param allow_in_flight: excuse surviving sends whose (latest)
            scheduled arrival lies beyond the current simulation time --
            the run ended with the message on the wire.  Pass ``False``
            only after the network has fully drained.
        """
        fed = self.federation
        now = fed.sim.now
        report = ConsistencyReport(
            erasures=sum(len(w) for w in self.erasure_windows.values())
        )
        for problem in check_invariants(fed):
            report.add("invariant", problem)
        queued_ids = _queued_ids(fed)
        logged_ids = _logged_ids(fed)

        for msg_id in sorted(self.sends):
            report.messages += 1
            live_sends = self.surviving_sends(msg_id)
            live_deliveries = self.surviving_deliveries(msg_id)

            if live_deliveries and not live_sends:
                d = live_deliveries[0]
                report.add(
                    "orphan",
                    f"msg {msg_id} delivered at t={d.time:.3f} on {d.node} "
                    f"but every send was erased by a rollback",
                )
            if len(live_deliveries) > 1:
                where = ", ".join(
                    f"{d.node}@t={d.time:.3f}" for d in live_deliveries
                )
                report.add(
                    "duplicate",
                    f"msg {msg_id} delivered {len(live_deliveries)} times "
                    f"in the surviving timeline ({where})",
                )
            if live_sends and not live_deliveries:
                if any(s.arrival > now for s in live_sends):
                    if allow_in_flight:
                        report.in_flight += 1
                        continue
                if msg_id in queued_ids:
                    report.queued += 1
                elif msg_id in logged_ids:
                    report.replayable += 1
                else:
                    s = live_sends[-1]
                    report.add(
                        "lost",
                        f"msg {msg_id} (c{s.src_cluster} -> c{s.dst_cluster}, "
                        f"sent t={s.time:.3f}) has no surviving delivery and "
                        f"is neither in flight, queued, nor logged",
                    )
            if live_deliveries:
                report.delivered += 1

        for msg_id in sorted(set(self.deliveries) - set(self.sends)):
            report.add(
                "unsourced",
                f"msg {msg_id} was delivered but never seen at the fabric",
            )
        return report


def attach_oracle(federation: "Federation") -> ConsistencyOracle:
    """Instrument ``federation`` (call before ``federation.start()``)."""
    return ConsistencyOracle(federation)


def assert_consistent(
    federation: "Federation",
    oracle: ConsistencyOracle,
    allow_in_flight: bool = True,
) -> ConsistencyReport:
    """Check and raise ``AssertionError`` with the full report on failure."""
    report = oracle.check(allow_in_flight=allow_in_flight)
    if not report.ok:
        raise AssertionError(f"{federation.protocol.name}: {report}")
    return report


# ----------------------------------------------------------------------
# the quiescence pre-check
# ----------------------------------------------------------------------

def check_invariants(federation: "Federation") -> list[str]:
    """HC3I-family protocol-state invariants outside 2PC/recovery windows.

    Returns a list of violation strings (empty = all good, and always
    empty for a family that keeps no SN/DDV state):

    * the cluster's SN equals its DDV own-entry,
    * the newest stored CLC (if the state is clean) carries SN = cluster SN,
    * stored CLC SNs strictly increase and DDVs are entrywise monotone,
    * the DDV never references an SN larger than the peer ever committed
      (an SN grows by one per commit, so the peer's commit count bounds it).
    """
    protocol = federation.protocol
    if not isinstance(protocol, Hc3iProtocol):
        return []
    states = protocol.cluster_states
    committed = [protocol.clc_count(cs.index, "total") for cs in states]
    problems: list[str] = []
    for cs in states:
        if cs.ddv[cs.index] != cs.sn:
            problems.append(
                f"c{cs.index}: ddv own entry {cs.ddv[cs.index]} != sn {cs.sn}"
            )
        for peer, seen in enumerate(cs.ddv):
            if peer != cs.index and seen > committed[peer]:
                problems.append(
                    f"c{cs.index}: ddv[{peer}] = {seen} but c{peer} only ever "
                    f"committed {committed[peer]} CLCs"
                )
        records = list(cs.store)
        for a, b in zip(records, records[1:]):
            if b.sn <= a.sn:
                problems.append(f"c{cs.index}: store SNs not increasing at {b.sn}")
            if not b.ddv.dominates(a.ddv):
                problems.append(
                    f"c{cs.index}: DDV not monotone between sn {a.sn} and {b.sn}"
                )
        if records and not cs.recovering:
            last = records[-1]
            if cs.sn != last.sn:
                problems.append(
                    f"c{cs.index}: sn {cs.sn} != last stored CLC sn {last.sn}"
                )
    return problems


# ----------------------------------------------------------------------
# where an undelivered message may legitimately wait
# ----------------------------------------------------------------------

#: agent attributes that hold not-yet-delivered input
_AGENT_QUEUES = ("deferred_in", "pending", "pending_force")


def _iter_messages(queue: Iterable[Any]) -> Iterator[Message]:
    """Messages in a queue of Messages, tuples holding one, or entry
    objects with a ``.msg``."""
    for item in queue:
        for part in item if isinstance(item, tuple) else (item,):
            msg = part if isinstance(part, Message) else getattr(part, "msg", None)
            if isinstance(msg, Message):
                yield msg


def _queued_ids(fed: "Federation") -> set[int]:
    """Ids waiting in node hold buffers or agent input queues."""
    ids: set[int] = set()
    for cluster in fed.clusters:
        for node in cluster.nodes:
            for msg in _iter_messages(node._held):
                ids.add(msg.msg_id)
            for attr in _AGENT_QUEUES:
                for msg in _iter_messages(getattr(node.agent, attr, ())):
                    ids.add(msg.msg_id)
    return ids


def _logged_ids(fed: "Federation") -> set[int]:
    """Ids still re-producible from a sender-side message log."""
    ids: set[int] = set()
    for cs in fed.protocol.cluster_states:
        for msg in _iter_messages(getattr(cs, "sent_log", ())):
            ids.add(msg.msg_id)
    return ids

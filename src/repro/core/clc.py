"""Cluster Level Checkpoints (CLCs) and their per-cluster store.

A CLC is the coordinated checkpoint of all the processes of one cluster,
established by a two-phase commit (§3.1 of the paper):

* an initiator broadcasts a CLC *request* inside its cluster,
* every node saves its state (and replicates it to neighbour memory --
  stable storage), then *acknowledges*,
* the initiator broadcasts a *commit*; the cluster's sequence number (SN)
  is incremented and the CLC is stamped with the cluster's DDV (whose own
  entry equals the new SN).

Because the protocol's communication-induced layer may need to restore *old*
CLCs (the recovery line is computed at rollback time), every cluster stores
multiple CLCs; the garbage collector prunes them (§3.5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.ddv import DDV

__all__ = ["CheckpointCause", "CheckpointRecord", "ClcStore"]


class CheckpointCause(enum.Enum):
    """Why a CLC was taken."""

    INITIAL = "initial"  #: the mandatory checkpoint at application start
    TIMER = "timer"      #: unforced: the cluster's periodic CLC timer fired
    FORCED = "forced"    #: forced by an inter-cluster message (CIC layer)
    MANUAL = "manual"    #: requested explicitly through the API

    @property
    def forced(self) -> bool:
        return self is CheckpointCause.FORCED


@dataclass(frozen=True)
class CheckpointRecord:
    """One committed CLC.

    ``sn`` is the cluster's sequence number *after* the commit; the record's
    DDV own-entry always equals ``sn``.  ``delivered_ids`` snapshots the set
    of inter-cluster application message ids delivered so far -- restoring
    the record restores that set, which is what makes replay deduplication
    consistent across rollbacks.

    ``queued`` snapshots the inter-cluster messages that were *received but
    not yet delivered* (waiting for their forced CLC) when each node saved
    its state: they are part of the saved state, exactly like the paper's
    queued messages during the two-phase commit.  This is what makes the
    "acknowledged with the local SN + 1" rule (§4) consistent: the CLC whose
    number equals the ack contains the message in its queue, so restoring it
    re-delivers the message without any replay.  Entries are
    ``(node_index, PendingDelivery)`` pairs.
    """

    sn: int
    ddv: DDV
    time: float
    cause: CheckpointCause
    cluster: int
    delivered_ids: frozenset = field(default_factory=frozenset)
    state_bytes: int = 0
    queued: tuple = ()

    def __post_init__(self) -> None:
        if self.ddv[self.cluster] != self.sn:
            raise ValueError(
                f"CLC record invariant violated: ddv[{self.cluster}]="
                f"{self.ddv[self.cluster]} != sn={self.sn}"
            )

    @property
    def forced(self) -> bool:
        return self.cause.forced


class ClcStore:
    """Chronologically ordered CLCs of one cluster.

    Supports the three mutations the protocol needs: append on commit,
    discard-after on rollback, prune-older-than on garbage collection.
    """

    def __init__(self, cluster: int):
        self.cluster = cluster
        self.records: list[CheckpointRecord] = []
        #: total CLCs ever discarded by rollbacks (for statistics)
        self.discarded_by_rollback = 0
        #: total CLCs ever removed by the garbage collector
        self.removed_by_gc = 0

    # ------------------------------------------------------------------
    def add(self, record: CheckpointRecord) -> None:
        if record.cluster != self.cluster:
            raise ValueError(f"record for cluster {record.cluster} in store {self.cluster}")
        if self.records and record.sn <= self.records[-1].sn:
            raise ValueError(
                f"non-increasing CLC sn: {record.sn} after {self.records[-1].sn}"
            )
        self.records.append(record)

    def last(self) -> CheckpointRecord:
        if not self.records:
            raise LookupError(f"cluster {self.cluster} has no stored CLC")
        return self.records[-1]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def sns(self) -> list[int]:
        return [r.sn for r in self.records]

    # ------------------------------------------------------------------
    def find_rollback_target(self, faulty: int, alert_sn: int) -> Optional[CheckpointRecord]:
        """The *oldest* stored CLC whose DDV entry for ``faulty`` >= ``alert_sn``.

        This is the paper's §3.4 rule: the DDV entry for the faulty cluster
        is updated (by a forced CLC) *before* any message carrying that SN
        is delivered, so the oldest CLC satisfying the predicate precedes
        every delivery that depends on the lost states.
        """
        for record in self.records:
            if record.ddv[faulty] >= alert_sn:
                return record
        return None

    def discard_after(self, record: CheckpointRecord) -> int:
        """Drop every CLC newer than ``record`` (a rollback erased them)."""
        try:
            idx = self.records.index(record)
        except ValueError:
            raise LookupError(f"record sn={record.sn} not in store {self.cluster}") from None
        removed = len(self.records) - idx - 1
        del self.records[idx + 1:]
        self.discarded_by_rollback += removed
        return removed

    def prune(self, min_sn: int) -> int:
        """Garbage-collect CLCs with ``sn < min_sn`` (§3.5).

        Defensive guard: the newest CLC is never removed, whatever
        ``min_sn`` says -- a cluster must always be able to roll back to
        its last checkpoint.
        """
        if len(self.records) <= 1:
            return 0
        keep_from = 0
        for i, record in enumerate(self.records):
            if record.sn >= min_sn:
                keep_from = i
                break
        else:
            keep_from = len(self.records) - 1  # keep only the newest
        removed = keep_from
        if removed:
            del self.records[:keep_from]
            self.removed_by_gc += removed
        return removed

    def ddv_list(self) -> list[tuple]:
        """(sn, ddv-tuple) for every stored CLC -- the GC response payload."""
        return [(r.sn, r.ddv.as_tuple()) for r in self.records]

    def total_state_bytes(self) -> int:
        return sum(r.state_bytes for r in self.records)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ClcStore c{self.cluster} sns={self.sns()}>"

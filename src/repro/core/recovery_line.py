"""Recovery-line computation (pure functions and plain data).

Three consumers:

* the **garbage collector** (§3.5): "it simulates a failure in each cluster
  and keeps the smallest SN to which the clusters of the federation might
  rollback" -- :func:`compute_min_sns`;
* **verification**: property tests check that the event-driven rollback
  cascade of :mod:`repro.core.rollback` lands exactly on the targets
  predicted by :func:`cascade_targets`;
* the **baseline families** that compute their recovery line at rollback
  time from recorded message edges -- :func:`line_targets`, one fixpoint
  parameterised by which inconsistency direction propagates -- and the two
  filters that recognise a message whose send a rollback erased
  (:class:`GhostCuts` by rollback epoch, :class:`ErasedWindows` by send
  time).

All of it operates on plain data -- per-cluster chronological lists of
``(sn, ddv_tuple)`` or checkpoint numbers, message edges, each cluster's
current DDV -- so it can run anywhere (inside the simulated GC initiator,
in tests, in offline analysis).

Key protocol facts used here (§3.4):

* a cluster rolls back on an alert ``(f, s)`` iff its current DDV entry for
  ``f`` is ``>= s``;
* it rolls back to the **oldest** stored CLC whose DDV entry for ``f`` is
  ``>= s`` (forced CLCs are taken *before* delivering the message that
  updated the DDV, so that CLC precedes every dependent delivery);
* a cluster that rolls back emits its own alert with its new SN, which may
  cascade;
* DDV entries are monotonically non-decreasing along a cluster's stored
  CLCs, which makes the "oldest with entry >= s" search well defined.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import TYPE_CHECKING, Any, Collection, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.message import Message

__all__ = [
    "GHOST",
    "IN_TRANSIT",
    "ErasedWindows",
    "GhostCuts",
    "cascade_targets",
    "compute_min_sns",
    "line_targets",
    "survives",
]

StoredDdvs = Sequence[Sequence[tuple]]  # per cluster: [(sn, ddv_tuple), ...]
#: message record ``(src_cluster, send_epoch, dst_cluster, recv_epoch)``
Edge = tuple[int, int, int, int]

#: a receive survives but its send was erased: the receiver must forget it
GHOST = "ghost"
#: a send survives but its receive was erased: without a sender log, the
#: sender must roll back before the send to re-produce the message
IN_TRANSIT = "in_transit"


def _check_monotone(stored: StoredDdvs) -> None:
    for c, records in enumerate(stored):
        prev_sn = -1
        for sn, ddv in records:
            if sn <= prev_sn:
                raise ValueError(f"cluster {c}: CLC SNs not increasing at sn={sn}")
            prev_sn = sn


def cascade_targets(
    stored: StoredDdvs,
    current_ddvs: Sequence[tuple],
    failed: int,
) -> list[Optional[int]]:
    """Rollback target SN per cluster after a failure in ``failed``.

    :param stored: per-cluster chronological ``(sn, ddv)`` of stored CLCs.
    :param current_ddvs: each cluster's live DDV (used for the *first*
        trigger test; after a simulated rollback the restored CLC's DDV is
        used instead).
    :param failed: index of the faulty cluster.
    :returns: list with one entry per cluster: the SN of the CLC the cluster
        rolls back to, or ``None`` if it does not roll back.

    The faulty cluster always rolls back to its *last* stored CLC.  Alerts
    are then propagated to a fixpoint.  Re-receiving an alert that maps a
    cluster onto its current position is a no-op and emits no further alert,
    which guarantees termination (every real move is strictly older).
    """
    n = len(stored)
    if not (0 <= failed < n):
        raise ValueError(f"failed cluster {failed} out of range")
    if not stored[failed]:
        raise ValueError(f"faulty cluster {failed} has no stored CLC")
    _check_monotone(stored)

    # position[c] = index into stored[c] after rollback, or None = live.
    position: list[Optional[int]] = [None] * n
    position[failed] = len(stored[failed]) - 1
    alerts: deque = deque([(failed, stored[failed][-1][0])])

    while alerts:
        f, s = alerts.popleft()
        for d in range(n):
            if d == f:
                continue
            at = position[d]
            if at is None:
                ddv = current_ddvs[d]
                limit = len(stored[d]) - 1
            else:
                ddv = stored[d][at][1]
                limit = at
            if ddv[f] < s:
                continue  # no dependency on the lost states
            target = None
            for i in range(limit + 1):
                if stored[d][i][1][f] >= s:
                    target = i
                    break
            if target is None:
                # Defensive: the DDV update's forced CLC is always stored
                # (or the dependency was already erased); treat as no move.
                continue
            if at is None or target < at:
                position[d] = target
                alerts.append((d, stored[d][target][0]))
            # target == position[d]: already there; no re-alert (termination).
    return [
        None if at is None else stored[c][at][0] for c, at in enumerate(position)
    ]


def compute_min_sns(stored: StoredDdvs, current_ddvs: Sequence[tuple]) -> list[int]:
    """Smallest SN each cluster might ever roll back to (§3.5).

    For every hypothetical single-cluster failure, compute the cascade
    targets and keep the per-cluster minimum.  A cluster that never rolls
    back in any scenario other than its own failure keeps its own last SN
    as the minimum (its own failure is one of the scenarios).

    The garbage collector may then discard every CLC whose SN is smaller
    than this bound, and every logged message acknowledged below the
    receiver's bound.
    """
    n = len(stored)
    mins: list[Optional[int]] = [None] * n
    for f in range(n):
        if not stored[f]:
            continue
        targets = cascade_targets(stored, current_ddvs, f)
        for c, t in enumerate(targets):
            if t is None:
                continue
            low = mins[c]
            if low is None or t < low:
                mins[c] = t
    # A cluster with no stored CLC anywhere reachable keeps bound 0.
    return [m if m is not None else 0 for m in mins]


def survives(target: Optional[int], epoch: int) -> bool:
    """Does an event in checkpoint interval ``epoch`` survive its cluster's
    restore to checkpoint ``target`` (``None`` = the cluster stays live)?"""
    return target is None or epoch < target


def line_targets(
    checkpoints: Sequence[Sequence[int]],
    edges: Sequence[Edge],
    failed: int,
    propagate: Collection[str],
) -> list[Optional[int]]:
    """Recovery line computed at rollback time from recorded message edges.

    :param checkpoints: per cluster, the sorted list of available
        checkpoint numbers (interval k spans from checkpoint k to k+1).
    :param edges: message records ``(src_cluster, send_epoch, dst_cluster,
        recv_epoch)`` -- epochs are the checkpoint count at the event; an
        event in epoch ``e`` survives a restore to ``s`` iff ``e < s``.
    :param failed: the faulty cluster; it restores its last checkpoint.
    :param propagate: which inconsistency directions lower a cluster, a
        subset of ``{GHOST, IN_TRANSIT}``.  Without sender logs both do
        (the textbook bidirectional domino of §2.2); a family that logs
        its sends replays in-transit messages instead of rolling the
        sender back, so only ``GHOST`` propagates and the fixpoint is
        monotone in the placement of forced checkpoints.
    :returns: per-cluster restored checkpoint number (``None`` = cluster
        does not roll back, ``0`` = restart from the very beginning of the
        application -- the domino ran past the oldest checkpoint).

    Fixpoint: while some message violates a propagated direction, lower the
    offending side to the newest checkpoint at or below the event's epoch.
    Every constraint is monotone in the targets, so the result does not
    depend on the order edges are visited in; a worklist revisits only the
    edges of clusters whose target just moved.
    """
    for direction in propagate:
        if direction not in (GHOST, IN_TRANSIT):
            raise ValueError(f"unknown propagate direction {direction!r}")
    if not checkpoints[failed]:
        raise ValueError(f"faulty cluster {failed} has no checkpoint")
    n = len(checkpoints)
    sent_by: list[list[Edge]] = [[] for _ in range(n)]
    received_by: list[list[Edge]] = [[] for _ in range(n)]
    for edge in edges:
        sent_by[edge[0]].append(edge)
        received_by[edge[2]].append(edge)

    live = float("inf")  # no rollback
    target: list[float] = [live] * n
    target[failed] = checkpoints[failed][-1]
    moved = deque([failed])

    def lower(cluster: int, epoch: int) -> None:
        # newest checkpoint <= epoch; when none is old enough the cluster
        # restarts from 0 -- the unbounded domino the paper warns about
        numbers = checkpoints[cluster]
        at = bisect_right(numbers, epoch)
        best = numbers[at - 1] if at else 0
        if best < target[cluster]:
            target[cluster] = best
            moved.append(cluster)

    ghosts, in_transit = GHOST in propagate, IN_TRANSIT in propagate
    while moved:
        c = moved.popleft()
        if ghosts:
            for _, send_epoch, dst, recv_epoch in sent_by[c]:
                if send_epoch >= target[c] and recv_epoch < target[dst]:
                    lower(dst, recv_epoch)
        if in_transit:
            for src, send_epoch, _, recv_epoch in received_by[c]:
                if recv_epoch >= target[c] and send_epoch < target[src]:
                    lower(src, send_epoch)
    return [None if t == live else int(t) for t in target]


class GhostCuts:
    """Rollback-epoch ghost filter (incarnation numbers).

    Every rollback increments the cluster's *rollback epoch*, which is
    piggybacked on inter-cluster messages next to the checkpoint number at
    send time.  A rollback of ``src`` to checkpoint ``restored`` opening
    epoch ``new_epoch`` is remembered as the cut ``(new_epoch, restored)``;
    a message stamped with an older epoch and a number ``>= restored`` was
    sent from the erased timeline.  This is the standard
    incarnation-number technique from optimistic message logging and is
    behaviourally neutral in failure-free runs.
    """

    def __init__(self, n_clusters: int) -> None:
        #: per source cluster: [(new_epoch, restored_number)] of its rollbacks
        self.ghost_cuts: list[list[tuple[int, int]]] = [[] for _ in range(n_clusters)]

    def record_cut(self, src: int, restored: int, new_epoch: int) -> None:
        self.ghost_cuts[src].append((new_epoch, restored))

    def is_ghost(self, src: int, piggy: Any) -> bool:
        """Was this message's send erased by a rollback of its sender?

        ``piggy`` carries the sender's ``epoch`` and, through
        ``entry_for(src)``, its checkpoint number at send time.
        """
        value = piggy.entry_for(src)
        for new_epoch, restored in self.ghost_cuts[src]:
            if new_epoch > piggy.epoch and restored <= value:
                return True
        return False


class ErasedWindows:
    """Send-time ghost filter for families that piggyback no epoch.

    The fabric stamps every message with its send time; a rollback of the
    sender to checkpoint time ``T`` at instant ``R`` erases sends in
    ``[T, R]`` (closed on the left: the restored state is fixed at the
    checkpoint commit).  Real systems detect such stale messages with
    channel incarnation numbers; the simulator can use the send timestamp
    directly.
    """

    def __init__(self, n_clusters: int) -> None:
        #: per cluster: [(erased_from, erased_until)] of its rollbacks
        self.ghost_windows: list[list[tuple[float, float]]] = [
            [] for _ in range(n_clusters)
        ]

    def record_window(self, cluster: int, erased_from: float, erased_until: float) -> None:
        self.ghost_windows[cluster].append((erased_from, erased_until))

    def send_erased(self, msg: "Message") -> bool:
        """Was this in-flight message's send erased by a sender rollback?"""
        return any(
            erased_from <= msg.send_time <= erased_until
            for erased_from, erased_until in self.ghost_windows[msg.src.cluster]
        )

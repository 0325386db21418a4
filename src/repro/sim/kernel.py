"""Core event loop of the discrete-event simulator.

The kernel is a priority queue of timestamped callbacks.  Ties are broken by
insertion order (a monotonically increasing sequence number), which makes the
whole simulation deterministic: two events scheduled for the same instant
always fire in the order they were scheduled.

Time is a ``float`` in *seconds* of simulated time.  Nothing in the kernel
depends on wall-clock time.

Hot-path representation
-----------------------

Every paper experiment ultimately spins this loop, so it is written for
throughput:

* A scheduled event is a plain 4-slot list ``[time, seq, fn, args]`` -- the
  heap entry *is* the handle :meth:`Simulator.schedule` returns.  ``heapq``
  compares entries with C-level list comparison on the ``(time, seq)``
  prefix (``seq`` is unique, so ``fn``/``args`` are never compared and no
  Python ``__lt__`` ever runs).
* The entry's state is encoded in its ``fn``/``args`` slots: live entries
  have a callable ``fn`` and a tuple ``args``; cancellation clears ``fn``
  in place (the entry stays queued until it surfaces, or until cancelled
  entries exceed half the queue and one O(n) in-place compaction sweeps
  them); leaving the heap -- by dispatch or by a cancelled entry being
  popped/swept -- sets ``args`` to ``None``, which is the single hot-path
  store that marks the entry fired and safe for
  :meth:`Simulator.reschedule` to reuse.
* :attr:`Simulator.pending` is O(1) by construction:
  ``len(queue) - cancelled_in_heap``, where the cancelled counter moves
  only on the cold paths (cancel, cancelled-entry pop, compaction) --
  dispatching a live event costs no accounting at all beyond the pop.
* :meth:`Simulator.run` pops and dispatches inline -- no per-event
  look-then-pop double scan, ``until`` normalized to ``+inf`` so the
  horizon test is a single float comparison, and the digest hook
  specialized out of the loop when disabled.
* :meth:`Simulator.schedule_many` batches a burst of schedules through one
  call, and :meth:`Simulator.reschedule` re-arms a fired entry in place
  (a one-slot timer wheel: periodic timers reuse their heap entry instead
  of allocating a fresh one every period).

Determinism contract
--------------------

The observable dispatch stream -- which callback fires, at what simulated
time, with which kernel sequence number -- is part of the kernel's
contract, protected bit-for-bit by the golden trace-equivalence suite
(:mod:`repro.sim.trace_digest`, ``tests/test_trace_golden.py``).  Any
change to this file must reproduce the committed digests exactly; the
representation above is free to change, the stream is not.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = ["Event", "Simulator", "SimulationError", "event_pending"]

#: heap-entry slot indices
_TIME, _SEQ, _FN, _ARGS = 0, 1, 2, 3

#: compaction is considered once the heap holds more entries than this
_COMPACT_MIN = 64

#: An event handle: the heap entry itself, ``[time, seq, fn, args]``.
#: Opaque to callers -- hold it to :meth:`Simulator.cancel` the callback.
Event = list

#: module-level dispatch-digest sink installed by
#: :func:`repro.sim.trace_digest.capture`; picked up by simulators at
#: construction time
_digest_sink = None


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, re-running, ...)."""


def event_pending(event: Event) -> bool:
    """True while the event is scheduled and not cancelled/fired."""
    return event[_FN] is not None and event[_ARGS] is not None


class Simulator:
    """Deterministic discrete-event simulation loop.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run(until=10.0)

    The loop pops the earliest event, advances :attr:`now` to its timestamp
    and invokes its callback.  Callbacks may schedule further events.
    """

    __slots__ = (
        "now",
        "_queue",
        "_seq",
        "_cancelled_in_heap",
        "_running",
        "_stopped",
        "_processed",
        "_digest",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[Event] = []
        self._seq: int = 0
        self._cancelled_in_heap: int = 0
        self._running = False
        self._stopped = False
        self._processed: int = 0
        self._digest = _digest_sink

    def attach_digest(self, digest) -> None:
        """Record every dispatched event into ``digest`` (a TraceDigest).

        Takes effect for the next :meth:`run`/:meth:`step` call; a ``run``
        already in progress keeps the digest it started with.
        """
        self._digest = digest

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        entry = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._queue, entry)
        return entry

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        entry = [time, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._queue, entry)
        return entry

    def schedule_many(self, items: Iterable[Sequence]) -> list:
        """Batch-schedule ``(delay, fn)`` or ``(delay, fn, args)`` items.

        Equivalent to calling :meth:`schedule` per item (identical sequence
        numbers are assigned, in iteration order, so the dispatch stream is
        the same), but with the per-call overhead paid once.  Returns the
        new event handles in order.  A negative delay raises after the
        earlier items were already scheduled, exactly as a loop of
        :meth:`schedule` calls would.
        """
        queue = self._queue
        push = heapq.heappush
        now = self.now
        seq = self._seq
        entries = []
        try:
            for item in items:
                delay = item[0]
                if delay < 0:
                    raise SimulationError(
                        f"cannot schedule into the past (delay={delay})"
                    )
                entry = [now + delay, seq, item[1], item[2] if len(item) > 2 else ()]
                seq += 1
                push(queue, entry)
                entries.append(entry)
        finally:
            self._seq = seq
        return entries

    def reschedule(
        self, event: Optional[Event], delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Arm a timer, reusing ``event``'s heap entry when possible.

        The one-slot timer-wheel fast path: a periodic timer's entry is
        re-armed in place right after it fires, instead of allocating a
        fresh list every period.  Reuse is only safe once the entry has
        actually left the heap (fired, or a cancelled entry that was
        popped/compacted away); a still-enqueued entry -- live or
        cancelled -- falls back to a fresh :meth:`schedule`.  Sequence
        numbers are allocated exactly as :meth:`schedule` would, so the
        dispatch stream is unchanged.
        """
        if event is None or event[_ARGS] is not None:
            return self.schedule(delay, fn, *args)
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event[_TIME] = self.now + delay
        event[_SEQ] = self._seq
        event[_FN] = fn
        event[_ARGS] = args
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling twice (or after it fired) is
        a no-op.

        The entry is cleared in place and left in the heap; when cancelled
        entries outnumber live ones the whole queue is compacted (one
        O(n) heapify), so mass-cancelling workloads cannot leak memory.
        """
        if event[_FN] is None or event[_ARGS] is None:
            return
        event[_FN] = None  # break callback/args references; stays in the heap
        event[_ARGS] = ()  # () not None: the entry has not left the heap yet
        self._cancelled_in_heap += 1
        n = len(self._queue)
        if n > _COMPACT_MIN and self._cancelled_in_heap * 2 > n:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify.

        Mutates the queue list *in place*: :meth:`run` (and any caller of
        :meth:`step`) may hold a local alias to it, so the list's identity
        must survive compaction.
        """
        queue = self._queue
        live = []
        for entry in queue:
            if entry[_FN] is not None:
                live.append(entry)
            else:
                entry[_ARGS] = None  # out of the heap: reusable
        queue[:] = live
        heapq.heapify(queue)
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process a single event.  Returns ``False`` if the queue is empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            fn = entry[_FN]
            if fn is None:
                entry[_ARGS] = None
                self._cancelled_in_heap -= 1
                continue
            args = entry[_ARGS]
            entry[_ARGS] = None
            self.now = entry[_TIME]
            self._processed += 1
            if self._digest is not None:
                self._digest.update(entry[_TIME], entry[_SEQ], fn)
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue empties or simulated time reaches ``until``.

        Returns the simulation time at which the run stopped.  When ``until``
        is given the clock is advanced to exactly ``until`` even if the last
        event fired earlier (matching how the paper reports a fixed
        application duration).

        :attr:`processed` is refreshed when ``run`` returns (or raises);
        a callback reading it mid-run sees the value as of the last
        ``run``/``step`` boundary.  :attr:`pending` is exact at all times.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        self._stopped = False
        queue = self._queue
        pop = heapq.heappop
        digest = self._digest
        horizon = inf if until is None else until
        done = 0
        # The two loops below are identical except for the digest call:
        # the no-digest loop is the production hot path and must not pay
        # even the per-event None test.  stop() can only be called from
        # inside a callback, so testing _stopped after fn() is exact.
        # Slot indices appear as literals below (not the _TIME/_SEQ/_FN/_ARGS
        # module constants): a LOAD_CONST per access instead of a cached
        # global lookup, measurable at millions of events per second.
        try:
            if digest is None:
                while queue:
                    entry = pop(queue)
                    fn = entry[2]  # _FN
                    if fn is None:
                        entry[3] = None  # _ARGS
                        self._cancelled_in_heap -= 1
                        continue
                    time = entry[0]  # _TIME
                    if time > horizon:
                        heapq.heappush(queue, entry)  # once per run at most
                        break
                    args = entry[3]
                    entry[3] = None
                    self.now = time
                    done += 1
                    # plain calls take CPython's specialized CALL path;
                    # only splat when there genuinely are arguments
                    if args:
                        fn(*args)
                    else:
                        fn()
                    if self._stopped:
                        break
            else:
                while queue:
                    entry = pop(queue)
                    fn = entry[2]  # _FN
                    if fn is None:
                        entry[3] = None  # _ARGS
                        self._cancelled_in_heap -= 1
                        continue
                    time = entry[0]  # _TIME
                    if time > horizon:
                        heapq.heappush(queue, entry)
                        break
                    args = entry[3]
                    entry[3] = None
                    self.now = time
                    done += 1
                    digest.update(time, entry[1], fn)  # _SEQ
                    fn(*args)
                    if self._stopped:
                        break
            if until is not None and not self._stopped and self.now < until:
                self.now = until
            return self.now
        finally:
            self._processed += done
            self._running = False

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # snapshot support (see repro.sim.snapshot)
    # ------------------------------------------------------------------
    def __getstate__(self):
        if self._running:
            raise SimulationError("cannot snapshot a simulator mid-run()")
        digest = self._digest
        if digest is not None and not getattr(digest, "snapshot_safe", False):
            # Streaming digests (and ad-hoc sinks) cannot round-trip a
            # pickle; drop them rather than producing an unrestorable blob.
            digest = None
        return {
            "now": self.now,
            "queue": self._queue,
            "seq": self._seq,
            "cancelled": self._cancelled_in_heap,
            "stopped": self._stopped,
            "processed": self._processed,
            "digest": digest,
        }

    def __setstate__(self, state) -> None:
        self.now = state["now"]
        self._queue = state["queue"]
        self._seq = state["seq"]
        self._cancelled_in_heap = state["cancelled"]
        self._running = False
        self._stopped = state["stopped"]
        self._processed = state["processed"]
        self._digest = state["digest"]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of pending (non-cancelled) events.  O(1)."""
        return len(self._queue) - self._cancelled_in_heap

    @property
    def processed(self) -> int:
        """Total number of events executed so far (see :meth:`run`)."""
        return self._processed

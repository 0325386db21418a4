"""Order-sensitive digests of the kernel's dispatch stream.

The simulator is deterministic: two runs of the same model with the same
seed dispatch exactly the same events, in the same order, at the same
simulated times.  That makes correctness of kernel optimizations checkable
*exactly* -- not "the summary statistics look the same" but "every single
event fired at the same instant, in the same order, into the same
callback".  A :class:`TraceDigest` folds the whole dispatch stream into one
hash: the kernel feeds it ``(time, seq, callback)`` for every event it
executes, and two runs are trace-equivalent iff their digests match.

What goes into the hash per event:

* ``time`` -- the dispatch timestamp, as its exact IEEE-754 bits (so even a
  1-ulp drift in a delay computation is caught),
* ``seq`` -- the kernel sequence number, which encodes *scheduling* order
  (ties at one instant, but also the global order in which model code asked
  for events),
* ``callback id`` -- a hash-seed-independent name for the callback
  (``module.qualname``), so "the right time but the wrong handler" cannot
  collide.

Callback *arguments* are deliberately excluded: they may hold model objects
whose reprs embed memory addresses.  ``seq`` already pins the scheduling
call site uniquely within a run, so argument drift surfaces as a
downstream ordering drift anyway.

Usage -- explicit attachment::

    sim = Simulator()
    digest = TraceDigest()
    sim.attach_digest(digest)
    sim.run()
    digest.hexdigest()

or capture every simulator built inside a block (this is what the golden
trace-equivalence suite uses; experiments construct their federations --
and therefore their simulators -- internally)::

    with trace_digest.capture() as digest:
        experiment.point(params)
    digest.hexdigest()

The golden digests for all registered experiments live in
``tests/golden/trace_digests.json`` (see ``tests/test_trace_golden.py``)
and were recorded with the pre-rewrite kernel; the optimized substrate must
reproduce them bit-for-bit.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["TraceDigest", "callback_id", "capture"]

_pack = struct.Struct("<dQ").pack


def callback_id(fn: Callable[..., Any]) -> str:
    """A stable, hash-seed-independent identifier for a kernel callback.

    ``module.qualname`` for functions, bound methods and lambdas (lambda
    qualnames include their defining scope, which is stable source-level
    information).  ``functools.partial`` unwraps to the inner callable;
    anything without a qualname (callable instances) falls back to its
    type's name.  Never uses ``id()``/``repr()`` -- those embed addresses.
    """
    qual = getattr(fn, "__qualname__", None)
    if qual is None:
        inner = getattr(fn, "func", None)  # functools.partial and friends
        if inner is not None and callable(inner):
            return "partial:" + callback_id(inner)
        cls = type(fn)
        return f"{cls.__module__}.{cls.__qualname__}"
    return f"{getattr(fn, '__module__', '?')}.{qual}"


class TraceDigest:
    """Accumulates an order-sensitive hash of every dispatched event."""

    __slots__ = ("_hash", "events")

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self.events = 0

    def update(self, time: float, seq: int, fn: Callable[..., Any]) -> None:
        """Fold one dispatched event into the digest (called by the kernel)."""
        update = self._hash.update
        update(_pack(time, seq))
        update(callback_id(fn).encode("utf-8", "replace"))
        update(b"\x00")
        self.events += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def summary(self) -> dict:
        """Plain-data form, as stored in the golden files."""
        return {"digest": self.hexdigest(), "events": self.events}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceDigest events={self.events} {self.hexdigest()[:12]}...>"


@contextmanager
def capture() -> Iterator[TraceDigest]:
    """Attach one digest to every :class:`Simulator` built in this block.

    Simulators created *before* entering the block are unaffected.  Nested
    captures stack: the innermost capture wins for simulators built inside
    it.
    """
    from repro.sim import kernel

    digest = TraceDigest()
    previous = kernel._digest_sink
    kernel._digest_sink = digest
    try:
        yield digest
    finally:
        kernel._digest_sink = previous

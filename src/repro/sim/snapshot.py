"""Simulator snapshot/restore: fork a live federation mid-run.

A snapshot captures the *entire* simulation state -- the kernel's event
queue, every process, the protocol and RNG state and the statistics
registry -- as one pickle, so a run can be forked: frozen at some
simulated instant, thawed (in this process or another) and run on from
there.  It is not a sweep-side resume mechanism: a lost grid point is
simply recomputed from its params (see ``docs/sweeps.md``, "A lost point
is recomputed"), which at the run lengths this repo sees costs less than
writing snapshots would.

A live simulation pickles as it stands.  A kernel heap entry is
``[time, seq, fn, args]`` where ``fn`` is typically ``proc._resume`` or
``timer._fire``; bound methods pickle by reference (object + attribute
name), and the pickle memo preserves aliasing, so the restored queue
entries point at the restored processes -- including the identity between
an entry and the ``Process._pending_event`` / ``PeriodicTimer._event`` that
holds it.  Process bodies are plain objects (:class:`repro.sim.process.Body`)
whose fields say where they stand, so restoring one is unpickling it; a
process driven by a raw generator refuses to snapshot, because generators
do not pickle.

Nothing process-global rides along: message ids are the federation's own
(``Fabric.next_msg_id``, an int in the pickled graph), so a restored run
numbers its messages exactly as the uninterrupted one does.  Neither
does the trace digest: a streaming hash cannot be pickled, so the
restored simulator has none and a caller that wants one attaches it
again.

The determinism contract (see :mod:`repro.sim.trace_digest`) extends
through a fork: restoring a snapshot and running on must dispatch
exactly the events the uninterrupted run would have -- same times, same
sequence numbers, same callbacks.  ``tests/test_snapshot_fork.py`` pins
this bit-for-bit for every registered experiment.
"""

from __future__ import annotations

import pickle
from typing import Any

__all__ = ["SimClock", "SnapshotError", "dumps", "loads"]

#: payload format version; bump on incompatible layout changes
FORMAT = 1


class SnapshotError(RuntimeError):
    """A snapshot could not be taken or restored."""


class SimClock:
    """Picklable ``() -> sim.now`` callable (replaces a closure over ``sim``)."""

    __slots__ = ("sim",)

    def __init__(self, sim) -> None:
        self.sim = sim

    def __call__(self) -> float:
        return self.sim.now

    def __getstate__(self):
        return self.sim

    def __setstate__(self, state) -> None:
        self.sim = state


# ---------------------------------------------------------------------------
# pickle payload


def dumps(root: Any) -> bytes:
    """Serialize ``root`` (typically a Federation)."""
    payload = {"format": FORMAT, "root": root}
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(f"state is not snapshottable: {exc}") from exc


def loads(blob: bytes) -> Any:
    """Restore a :func:`dumps` payload; returns the root object."""
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise SnapshotError(f"snapshot payload does not unpickle: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise SnapshotError("unrecognized snapshot payload format")
    return payload["root"]

"""Simulator snapshot/restore: fork a live federation mid-run.

A snapshot captures the *entire* simulation state -- the kernel's event
queue, every process, the protocol and RNG state and the statistics
registry -- as one pickle, so a run can be forked: frozen at some
simulated instant, thawed (in this process or another) and run on from
there.  It is not a sweep-side resume mechanism: a lost grid point is
simply recomputed from its params (see ``docs/sweeps.md``, "A lost point
is recomputed"), which at the run lengths this repo sees costs less than
writing snapshots would.

Two things make a live simulation picklable, and both live here:

* **Event-queue entries hold bound methods.**  A heap entry is
  ``[time, seq, fn, args]`` where ``fn`` is typically
  ``proc._resume`` or ``timer._fire``.  Bound methods pickle by
  reference (object + attribute name), and the pickle memo preserves
  aliasing, so the restored queue entries point at the restored
  processes -- including the identity between an entry and the
  ``Process._pending_event`` / ``PeriodicTimer._event`` that holds it.
* **Generators do not pickle.**  Every resumable process generator is
  built from a :class:`GenSpec` -- the generator function, its
  arguments, and a mutable *phase* dict the generator labels before
  every yield.  On restore the generator is rebuilt from the spec and
  primed: run forward to a bare re-entry ``yield`` selected by the
  phase label, with no side effects and no RNG draws, so the pending
  ``_resume`` event in the restored queue continues it exactly where
  the original was suspended.

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
from typing import Any, Callable

__all__ = ["GenSpec", "SimClock", "SnapshotError", "dumps", "loads"]

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


class GenSpec:
    """How to rebuild one process generator after a restore.

    ``fn`` must be a picklable generator function (module-level function
    or bound method) taking a trailing ``_phase`` keyword: a mutable dict
    the generator assigns ``phase["at"] = "<label>"`` to before every
    yield it can be resumed at.  On restore the generator is rebuilt with
    the *restored* phase dict; reading the label, it jumps to a bare
    re-entry ``yield`` with no side effects, ready for the pending
    ``_resume`` event to continue it.
    """

    __slots__ = ("fn", "args", "phase")

    def __init__(self, fn: Callable[..., Any], *args: Any) -> None:
        self.fn = fn
        self.args = args
        self.phase: dict = {}

    def make(self):
        """Build the generator (fresh, or positioned for priming)."""
        return self.fn(*self.args, _phase=self.phase)

    def __getstate__(self):
        return (self.fn, self.args, self.phase)

    def __setstate__(self, state) -> None:
        self.fn, self.args, self.phase = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<GenSpec {name} at={self.phase.get('at')!r}>"


# ---------------------------------------------------------------------------
# pickle payload


def dumps(root: Any) -> bytes:
    """Serialize ``root`` (typically a Federation)."""
    payload = {"format": FORMAT, "root": root}
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"state is not snapshottable: {exc}") from exc


def loads(blob: bytes) -> Any:
    """Restore a :func:`dumps` payload; returns the root object.

    Process generators are rebuilt and primed in a post-pass (the object
    graph must be complete before any generator function can run).
    """
    from repro.sim import process as process_mod

    if process_mod._restore_batch is not None:
        raise SnapshotError("snapshot.loads() does not nest")
    process_mod._restore_batch = []
    try:
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise SnapshotError(f"snapshot payload does not unpickle: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != FORMAT:
            raise SnapshotError("unrecognized snapshot payload format")
        for proc in process_mod._restore_batch:
            _rebuild_generator(proc)
        return payload["root"]
    finally:
        process_mod._restore_batch = None


def _rebuild_generator(proc) -> None:
    """Rebuild (and, for a started process, prime) one restored process."""
    if not proc._alive:
        proc._gen = None
        return
    spec = proc._gen_spec
    gen = spec.make()
    proc._gen = gen
    if "at" in spec.phase:
        # The process was suspended mid-generator: run the rebuilt one to
        # its bare re-entry yield.  By the GenSpec contract this executes
        # no model side effects and draws no randomness.
        try:
            next(gen)
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(
                f"cannot prime restored process {proc.name!r}: {exc}"
            ) from exc

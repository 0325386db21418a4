"""Simulator snapshot/restore: serialize a live federation mid-run.

The paper's whole subject is checkpointing long-running parallel work so
it survives failures -- this module applies that medicine to the
simulator itself.  A snapshot captures the *entire* simulation state --
the kernel's event queue, every process, the protocol and RNG state, the
statistics registry and the trace-digest accumulator -- as one pickle,
so an evicted sweep point can resume on another worker instead of
re-running from zero (see :mod:`repro.experiments.checkpoint` for the
sweep-side policy).

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
numbers its messages exactly as the uninterrupted one does.

Snapshots are written as *envelopes*: one JSON header line (format,
payload checksum, provenance) followed by the raw pickle, written
atomically (temp file + rename) so a killed writer never leaves a
truncated snapshot that parses.  :func:`read_envelope` verifies the
checksum and raises :class:`CorruptSnapshotError` on any damage --
callers treat that as "no snapshot" and fall back to running from zero.

The determinism contract (see :mod:`repro.sim.trace_digest`) extends
through snapshots: restoring a snapshot and running on must dispatch
exactly the events the uninterrupted run would have -- same times, same
sequence numbers, same callbacks.  ``tests/test_checkpoint_resume.py``
pins this bit-for-bit for every registered experiment.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Tuple

from repro.atomic import atomic_write

__all__ = [
    "CorruptSnapshotError",
    "GenSpec",
    "SimClock",
    "SnapshotError",
    "StaleSnapshotError",
    "dumps",
    "loads",
    "read_envelope",
    "run_sliced",
    "write_envelope",
]

#: envelope/payload format version; bump on incompatible layout changes
FORMAT = 1

#: installed by :func:`repro.experiments.checkpoint.activate`; when set,
#: ``Federation.run`` hands the run loop to ``hook(federation, horizon)``
#: instead of calling ``sim.run(until=horizon)`` itself (module-level so
#: the sim layer never imports the experiments layer)
_drive_hook: Optional[Callable[..., Any]] = None


class SnapshotError(RuntimeError):
    """A snapshot could not be taken or restored."""


class CorruptSnapshotError(SnapshotError):
    """The snapshot envelope is damaged (truncated, garbled, bad checksum)."""


class StaleSnapshotError(SnapshotError):
    """The snapshot was taken by different ``repro`` sources.

    Resuming state produced by other code could silently diverge from the
    from-zero run (and poison the result cache), so stale snapshots are
    refused exactly as federation cache sync refuses mismatched entries.
    """


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


def run_sliced(sim, horizon: float, every: Optional[float]) -> Iterator[None]:
    """Run ``sim`` to ``horizon`` in ``every``-second slices, yielding at each
    interior slice boundary -- the instants at which a snapshot may be taken.

    Exhausting the generator dispatches exactly the events
    ``sim.run(until=horizon)`` would: slicing stops and restarts the kernel
    loop from the *outside*, so no simulated event is added, reordered or
    dropped.  Nothing is yielded at the horizon itself or once the
    simulation has stopped; ``every=None`` is the unsliced run (one slice,
    no boundary).
    """
    if every is None:
        sim.run(until=horizon)
        return
    while not sim._stopped and sim.now < horizon:
        target = min(sim.now + every, horizon)
        sim.run(until=target)
        if sim._stopped or target >= horizon:
            return
        yield


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
            raise CorruptSnapshotError(
                f"snapshot payload does not unpickle: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("format") != FORMAT:
            raise CorruptSnapshotError("unrecognized snapshot payload format")
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


# ---------------------------------------------------------------------------
# envelope I/O


def write_envelope(path, meta: dict, payload: bytes) -> Path:
    """Atomically write header-line + payload; returns the final path.

    The header is ``meta`` plus ``format`` and ``payload_sha256``.
    Write-then-rename (the result-cache idiom): a reader either sees the
    previous complete snapshot or this one, never a torn mix.
    """
    header = dict(meta)
    header["format"] = FORMAT
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    return atomic_write(path, lambda fh: fh.writelines((line, payload)))


def read_envelope(path) -> Tuple[dict, bytes]:
    """Parse and verify one envelope; returns ``(header, payload)``.

    Any damage -- unreadable file, missing header line, bad JSON, format
    skew, checksum mismatch -- raises :class:`CorruptSnapshotError`.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CorruptSnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    newline = blob.find(b"\n")
    if newline < 0:
        raise CorruptSnapshotError(f"snapshot {path} has no header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptSnapshotError(
            f"snapshot {path} header is not JSON: {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise CorruptSnapshotError(f"snapshot {path} has an unsupported format")
    payload = blob[newline + 1 :]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise CorruptSnapshotError(
            f"snapshot {path} payload checksum mismatch (truncated write?)"
        )
    return header, payload

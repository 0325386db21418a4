"""Checkpoint/resume policy for sweep points (the paper's medicine, taken).

:mod:`repro.sim.snapshot` knows how to freeze and thaw a live federation;
this module decides *when* -- simulated-time intervals and wall-clock
throttles -- and *where* -- write-then-rename envelopes in the sweep
spool, keyed like result-cache entries -- and wires restore into the
point-execution path so a requeued (evicted) grid point resumes from its
latest snapshot instead of recomputing from zero.

How it plugs in
---------------

:func:`run_point` wraps every point execution (in-process runners, the
local process pool, and ``remote_worker`` all route through it).  The
policy reaches it one way: as the ``checkpoint`` ref ``{every, wall, dir,
key}`` of the :class:`~repro.experiments.backends.base.PointTask`, which
the runner fills in from ``run_experiment(checkpoint=...)`` and every
distributed backend ships inside the wire job -- never as ambient state
of whichever process happens to run the attempt.  Under a policy it
installs :meth:`CheckpointConfig.drive` as the federation run hook:
instead of one ``sim.run(until=horizon)``, the driver slices the run into
``every``-second intervals and snapshots the federation between slices.
Slicing adds *zero* simulated events, so the dispatch stream (and hence
the trace digest) is bit-identical to the uninterrupted run.

On entry, each ``Federation.run`` call checks for its own envelope
(``<key>.c<call>.ckpt``): an ``inflight`` snapshot is restored *in place*
(the caller's federation object is transplanted with the restored state,
so multi-phase experiments that hold the federation across several
``run()`` calls keep working) and the run resumes from the snapshot's
simulated time; a ``completed`` envelope short-circuits the call
entirely.  Corrupt or stale envelopes (different ``code_version_hash``,
exactly the cache-sync rule) are discarded with a warning and the point
runs from zero -- a damaged snapshot must never crash a sweep or, worse,
poison its results.

Once a point finishes, a ``<key>.done.json`` manifest records the
per-call digests (CI's resume-equivalence lane compares these) and the
superseded ``.ckpt`` envelopes are garbage-collected -- by the worker,
and again by the runner once the result is durably cached (a worker can
die between writing its result and its own GC).

Fault injection for tests and CI: ``$REPRO_CHECKPOINT_KILL_EVENT=N``
raises :class:`SimulatedEviction` -- a ``BaseException``, so it sails
past the worker's failure envelope -- after N more dispatched events,
which to the batch backend looks exactly like a worker dying mid-point.
"""

from __future__ import annotations

import json
import os
import sys
import time as _time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.atomic import atomic_write
from repro.experiments.cache import code_version_hash, point_key
from repro.sim import snapshot
from repro.sim.snapshot import SnapshotError, StaleSnapshotError
from repro.sim.trace_digest import ChainedTraceDigest

__all__ = [
    "CheckpointConfig",
    "SimulatedEviction",
    "activate",
    "gc_point",
    "point_key",
    "run_point",
    "sweep_orphans",
]

#: fault-injection seam (tools/stub_k8s.py, CI): die after N more events
ENV_KILL = "REPRO_CHECKPOINT_KILL_EVENT"


class SimulatedEviction(BaseException):
    """Injected mid-run death (CI fault injection).

    A ``BaseException`` on purpose: the worker's ``except Exception``
    failure envelope must *not* catch it -- a real eviction writes no
    result file at all, and this has to look the same to the backend.
    """


class _EvictingDigest:
    """Digest wrapper that kills the run after a budgeted number of events.

    Wraps the real digest so the countdown sees every dispatched event;
    ``snapshot_safe`` is False so a snapshot taken between slices stores
    the *inner* digest (the wrapper is swapped out around each write --
    the kill budget is per-attempt state and must not resurrect on
    resume).
    """

    __slots__ = ("inner", "cfg")

    snapshot_safe = False

    def __init__(self, inner, cfg: "CheckpointConfig"):
        self.inner = inner
        self.cfg = cfg

    def update(self, time: float, seq: int, fn) -> None:
        self.inner.update(time, seq, fn)
        remaining = self.cfg._kill_remaining - 1
        self.cfg._kill_remaining = remaining
        if remaining <= 0:
            raise SimulatedEviction(
                f"simulated eviction after event #{self.inner.events}"
            )

    @property
    def events(self) -> int:
        return self.inner.events

    def hexdigest(self) -> str:
        return self.inner.hexdigest()

    def summary(self) -> dict:
        return self.inner.summary()


class CheckpointConfig:
    """One point-execution's checkpoint policy and progress."""

    def __init__(
        self,
        every: Optional[float] = None,
        wall: Optional[float] = None,
        directory: Optional[Path] = None,
        key: Optional[str] = None,
        kill_at_event: Optional[int] = None,
    ):
        if every is not None and every <= 0:
            raise ValueError(f"checkpoint interval must be positive: {every}")
        if wall is not None and wall < 0:
            raise ValueError(f"wall-clock throttle must be >= 0: {wall}")
        self.every = every
        self.wall = wall
        self.directory = Path(directory) if directory is not None else None
        self.key = key
        self.kill_at_event = kill_at_event
        # per-attempt state
        self._calls = 0
        self._kill_remaining = kill_at_event
        self._call_records: list = []
        self._last_write: Optional[float] = None

    # ------------------------------------------------------------------
    def _snapshot_path(self, idx: int) -> Optional[Path]:
        if self.directory is None or self.key is None:
            return None
        return self.directory / f"{self.key}.c{idx}.ckpt"

    def _record_call(self, idx: int, digest, events, sim_time, resumed_at=None) -> None:
        self._call_records.append(
            {
                "call": idx,
                "digest": digest,
                "events": events,
                "sim_time": sim_time,
                "resumed_at": resumed_at,
            }
        )

    # ------------------------------------------------------------------
    def drive(self, fed, horizon: float) -> None:
        """The ``Federation.run`` hook: restore, slice, snapshot.

        Must dispatch exactly the events ``sim.run(until=horizon)`` would,
        which is :func:`repro.sim.snapshot.run_sliced`'s contract.
        """
        idx = self._calls
        self._calls += 1
        resumed_at = None
        path = self._snapshot_path(idx)
        if path is not None and path.exists():
            header = self._try_restore(fed, path)
            if header is not None and header.get("state") == "completed":
                # This run() call already finished in a previous attempt;
                # the transplant put its final state in place.
                self._record_call(
                    idx,
                    digest=header.get("digest"),
                    events=header.get("events"),
                    sim_time=header.get("sim_time"),
                    resumed_at=header.get("sim_time"),
                )
                return
            if header is not None:
                resumed_at = header.get("sim_time")
        sim = fed.sim  # re-fetch: _try_restore may have transplanted fed
        if sim._digest is None:
            # Chained (picklable) digest so kill-and-resume comparisons
            # can span snapshots; never clobber an explicitly attached one.
            sim.attach_digest(ChainedTraceDigest())
        wrapper = None
        if self.kill_at_event is not None:
            wrapper = _EvictingDigest(sim._digest, self)
            sim.attach_digest(wrapper)
        try:
            for _ in snapshot.run_sliced(sim, horizon, self.every):
                self._write_snapshot(fed, idx, state="inflight")
        finally:
            if wrapper is not None and sim._digest is wrapper:
                sim.attach_digest(wrapper.inner)
        self._write_snapshot(fed, idx, state="completed", force=True)
        digest = fed.sim._digest
        self._record_call(
            idx,
            digest=digest.hexdigest() if digest is not None else None,
            events=digest.events if digest is not None else None,
            sim_time=fed.sim.now,
            resumed_at=resumed_at,
        )

    def _try_restore(self, fed, path: Path) -> Optional[dict]:
        """Transplant the envelope's state into ``fed``; header on success.

        Any unusable snapshot -- corrupt, truncated, or from different
        sources -- is discarded (with a warning) and the call runs from
        zero: resume is an optimization, never a correctness hazard.
        """
        try:
            header, payload = snapshot.read_envelope(path)
            if header.get("code") != code_version_hash():
                raise StaleSnapshotError(
                    f"snapshot {path} was taken by a different repro version"
                )
            restored = snapshot.loads(payload)
        except SnapshotError as exc:
            print(
                f"checkpoint: discarding unusable snapshot {path.name}: {exc}",
                file=sys.stderr,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        # In-place transplant: callers (and experiment code between run()
        # calls) hold references to this federation object, so it must
        # *become* the restored one rather than be replaced by it.
        fed.__dict__.update(restored.__dict__)
        return header

    def _write_snapshot(self, fed, idx: int, state: str, force: bool = False) -> None:
        path = self._snapshot_path(idx)
        if path is None:
            return
        if not force and self.wall is not None:
            now = _time.monotonic()
            if self._last_write is not None and now - self._last_write < self.wall:
                return  # wall-clock throttle: skip this interval boundary
        sim = fed.sim
        digest = sim._digest
        swapped = isinstance(digest, _EvictingDigest)
        if swapped:
            # The kill wrapper is per-attempt; snapshot the inner digest
            # so a resumed attempt continues the chain, not the countdown.
            sim.attach_digest(digest.inner)
        try:
            payload = snapshot.dumps(fed)
        finally:
            if swapped:
                sim.attach_digest(digest)
        inner = digest.inner if swapped else digest
        meta = {
            "code": code_version_hash(),
            "state": state,
            "key": self.key,
            "call": idx,
            "sim_time": sim.now,
            "digest": inner.hexdigest() if inner is not None else None,
            "events": inner.events if inner is not None else None,
        }
        snapshot.write_envelope(path, meta, payload)
        self._last_write = _time.monotonic()


# ---------------------------------------------------------------------------
# point execution


@contextmanager
def activate(cfg: CheckpointConfig) -> Iterator[CheckpointConfig]:
    """Install ``cfg.drive`` as the ``Federation.run`` hook for this block."""
    previous = snapshot._drive_hook
    snapshot._drive_hook = cfg.drive
    try:
        yield cfg
    finally:
        snapshot._drive_hook = previous


def run_point(
    fn: Callable[[dict], Any],
    params: dict,
    experiment: Optional[str] = None,
    policy: Optional[dict] = None,
) -> Any:
    """Run one grid point under ``policy``, its task's checkpoint ref.

    ``policy`` is ``{every, wall, dir, key}`` (see the module docstring)
    or ``None``; nothing else -- no environment, no enclosing block --
    contributes.  With no policy and no kill injection this is exactly
    ``fn(params)``.
    """
    kill_env = os.environ.get(ENV_KILL)
    kill = int(kill_env) if kill_env else None
    if not policy and kill is None:
        return fn(params)
    policy = policy or {}
    # Fresh per-point config: _calls/_kill_remaining/_call_records are
    # attempt state and must not leak between points.
    cfg = CheckpointConfig(
        every=policy.get("every"),
        wall=policy.get("wall"),
        directory=policy.get("dir"),
        key=policy.get("key"),
        kill_at_event=kill,
    )
    with activate(cfg):
        value = fn(params)
    if cfg.directory is not None and cfg.key is not None:
        write_done_manifest(cfg, experiment)
        gc_point(cfg.directory, cfg.key)
    return value


def write_done_manifest(cfg: CheckpointConfig, experiment: Optional[str]) -> Path:
    """Record the finished point's per-call digests (atomic write).

    Written *before* the snapshots are GC'd so the resume-equivalence
    check always has the digests, even though the envelopes are gone.
    """
    doc = {
        "format": snapshot.FORMAT,
        "code": code_version_hash(),
        "key": cfg.key,
        "experiment": experiment,
        "calls": cfg._call_records,
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8") + b"\n"
    return atomic_write(cfg.directory / f"{cfg.key}.done.json", lambda fh: fh.write(blob))


# ---------------------------------------------------------------------------
# spool hygiene


def gc_point(directory, key: str) -> int:
    """Delete a completed point's snapshot envelopes (keeps the manifest)."""
    removed = 0
    for path in Path(directory).glob(f"{key}.c*.ckpt"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def sweep_orphans(directory) -> int:
    """Remove temp files a killed writer left behind (cache-clear style)."""
    removed = 0
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    for path in directory.glob("*.tmp"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed

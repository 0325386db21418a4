"""Where a sweep's grid points execute: inline, or over a local process pool.

A grid point is location-independent -- its params dict (seed included)
fully determines the simulation -- so a :class:`PointTask` runs in this
process or in a pool worker with the same result.  :class:`Backend` is
the narrow protocol the runner drives and a wrapper (``bench/``'s spans)
puts itself around:

* ``submit(task) -> concurrent.futures.Future[PointOutcome]`` -- schedule
  one task; the future resolves to the point's value plus the
  worker-side seconds it took;
* ``prepare(n_tasks)`` -- a hint of the fan-out; ``shutdown()`` --
  release pools.

There is one implementation, :class:`LocalProcessBackend`: points run
inline for ``jobs <= 1`` (no pool spawn, fail-fast, debugger-friendly)
and fan out over a :class:`~concurrent.futures.ProcessPoolExecutor`
otherwise (simulations are CPU-bound; threads would serialize on the
GIL).  A pool round trip costs ~0.1 ms, so submitted points wait in a
backlog and travel in chunks sized from the worker-side time of the
points that came back last: many sub-millisecond points per trip, a long
point alone.  The chunk is transport only -- every point keeps its own
future.  Determinism is structural -- every params dict carries its
seed -- so results are byte-identical across ``jobs`` settings.

Failure semantics split in two, and the split is what makes retry safe:

* :class:`WorkerLostError` -- a pool worker died.  The task itself is
  fine; the runner puts it back in the queue and the backend replaces
  the broken pool.  Retryable.
* Any other exception out of ``future.result()`` -- the *point function*
  raised.  Re-running it would fail identically (points are
  deterministic), so this propagates and aborts the sweep.  Not
  retryable.
"""

from __future__ import annotations

import abc
import functools
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional, Union

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "LocalProcessBackend",
    "PointOutcome",
    "PointTask",
    "WorkerLostError",
    "backend_name",
    "create_backend",
]

#: worker-side seconds of points one pool round trip carries: what amortizes
#: the ~0.1 ms trip, and the finished work a killed worker can take with it
CHUNK_TARGET_S = 0.02
#: chunks shipped and not yet back, per worker: one running, one queued behind it
CHUNKS_PER_WORKER = 2


@dataclass(frozen=True)
class PointTask:
    """One schedulable grid point.

    ``params`` is the location-independent description; ``fn`` is the
    already-resolved point callable, which pickles by reference into a
    pool worker.  A requeued task is the same description again: the
    point is recomputed from zero.
    """

    params: dict
    fn: Callable[[dict], object]


@dataclass(frozen=True)
class PointOutcome:
    """A completed point: its value plus the worker-side seconds it took."""

    value: object
    elapsed: float = 0.0


class WorkerLostError(RuntimeError):
    """A pool worker died while (or before) executing a task.

    Retryable: the task is unharmed and can be reassigned.
    """


class Backend(abc.ABC):
    """Where grid points execute; the module docstring gives the contract."""

    #: short identifier used in reports (``backend=NAME``)
    name: str = "?"

    @abc.abstractmethod
    def submit(self, task: PointTask) -> "Future[PointOutcome]":
        """Schedule one task; the future resolves to a :class:`PointOutcome`."""

    def prepare(self, n_tasks: int) -> None:
        """Optional hint: about this many tasks are coming.

        Lets pooled backends size themselves to the actual fan-out (e.g.
        not spawning eight processes for one cache-missing point).  No-op
        by default.
        """

    def shutdown(self) -> None:
        """Release worker pools.  Idempotent."""


class LocalProcessBackend(Backend):
    """Inline points or a process pool behind the :class:`Backend` protocol."""

    name = "local"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self._hint: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 1
        # submit() and the pool's callback thread both move points along
        self._lock = threading.Lock()
        self._backlog: deque = deque()  # (task, future) pairs not yet shipped
        self._chunks_out = 0
        self._chunk_size = 1  # until a chunk comes back with measured point times

    # -- pool lifecycle ------------------------------------------------

    def prepare(self, n_tasks: int) -> None:
        self._hint = max(1, n_tasks)
        self._chunk_size = 1  # a new sweep's points are not the last one's

    def _inline(self) -> bool:
        """Mirror the historical runner: no pool for one job or one point."""
        return self.jobs <= 1 or self._hint == 1

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # CPUs this process may run on (taskset, cpuset, SLURM), not the machine's
            affinity = getattr(os, "sched_getaffinity", None)
            cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
            self._workers = min(self.jobs, self._hint or self.jobs, cpus)
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- Backend protocol ----------------------------------------------

    def submit(self, task: PointTask) -> "Future[PointOutcome]":
        future: Future = Future()
        if self._inline():
            try:
                future.set_result(PointOutcome(*_timed_point(task)))
            except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
                future.set_exception(exc)
            return future
        self._backlog.append((task, future))
        self._ship()
        return future

    def _ship(self) -> None:
        """Move backlog to the pool, one chunk per round trip, while it has room."""
        while True:
            with self._lock:
                if not self._backlog or self._chunks_out >= CHUNKS_PER_WORKER * self._workers:
                    return
                size = min(self._chunk_size, len(self._backlog))
                chunk = [self._backlog.popleft() for _ in range(size)]
                # task.fn is a module-level function, so it pickles by reference;
                # unpickling it in a worker imports its module, which re-populates
                # the registry there as a side effect.
                tasks = [task for task, _ in chunk]
                try:
                    inner = self._ensure_pool().submit(_timed_chunk, tasks)
                except BrokenProcessPool:
                    # the previous pool died; build a fresh one so a retry can run
                    self._discard_pool()
                    inner = self._ensure_pool().submit(_timed_chunk, tasks)
                self._chunks_out += 1
                pool = self._pool
            inner.add_done_callback(functools.partial(self._finish, pool, chunk))

    def _finish(self, pool: ProcessPoolExecutor, chunk: list, inner: Future) -> None:
        """Pool thread, a chunk is back: size and ship the next, resolve its points."""
        error = CancelledError() if inner.cancelled() else inner.exception()
        results = inner.result() if error is None else [error] * len(chunk)
        with self._lock:
            self._chunks_out -= 1
            if took := [result[1] for result in results if isinstance(result, tuple)]:
                self._chunk_size = max(1, int(CHUNK_TARGET_S * len(took) / (sum(took) or 1e-9)))
            if isinstance(error, BrokenProcessPool) and self._pool is pool:
                # a crashed worker poisons the whole pool; replace it so the
                # runner's resubmissions land on live processes
                self._discard_pool()
        self._ship()
        # values before errors: the runner stops collecting at the first error
        # it sees, and a chunk-mate's finished value must not be lost to that
        values_first = sorted(zip(chunk, results), key=lambda r: not isinstance(r[1], tuple))
        for (_, outer), result in values_first:
            if outer.cancelled():
                continue  # the runner aborted this sweep; nobody wants the value
            if isinstance(result, tuple):
                outer.set_result(PointOutcome(*result))
            elif isinstance(result, BrokenProcessPool):
                outer.set_exception(WorkerLostError("process pool worker died"))
            else:
                outer.set_exception(result)

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            while self._backlog:
                self._backlog.popleft()[1].cancel()
        if pool is not None:
            # cancel_futures: after an aborted sweep, queued points must not
            # keep burning CPU (and delaying exit) for results nobody reads
            pool.shutdown(wait=True, cancel_futures=True)


def _timed_chunk(tasks: list) -> list:
    """Worker-side: a chunk's points in one round trip.  Each reports its own
    :func:`_timed_point` tuple or the exception it raised (worker-side
    traceback attached as a note), so a failing point fails alone."""
    results: list = []
    for task in tasks:
        try:
            results.append(_timed_point(task))
        except Exception as exc:  # noqa: BLE001 - delivered through the point's future
            exc.add_note("".join(traceback.format_exception(exc)).rstrip())
            results.append(exc)
    return results


def _timed_point(task: PointTask) -> tuple:
    """Worker-side wrapper: run a point and report its wall time."""
    start = time.perf_counter()
    value = task.fn(task.params)
    return value, time.perf_counter() - start


#: names accepted by :func:`create_backend`
BACKEND_NAMES = ("local", "inprocess")


def backend_name(spec: Union[str, Backend, None]) -> str:
    """The name ``spec`` resolves to; an unknown name raises ``ValueError``."""
    if isinstance(spec, Backend):
        return spec.name
    name = spec or "local"
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
        )
    return name


def create_backend(spec: Union[str, Backend, None], jobs: int = 1) -> Backend:
    """Resolve a backend name (or pass an instance through) to a Backend."""
    if isinstance(spec, Backend):
        return spec
    # "inprocess" is the inline path under the name the benchmark ladder asks for
    return LocalProcessBackend(jobs=1 if backend_name(spec) == "inprocess" else jobs)

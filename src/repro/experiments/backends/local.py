"""Local execution backends: in-process (tests) and process-pool.

``LocalProcessBackend`` is the default: points run inline for
``jobs <= 1`` (no pool spawn, fail-fast, debugger-friendly) and fan out
over a :class:`~concurrent.futures.ProcessPoolExecutor` otherwise
(simulations are CPU-bound; threads would serialize on the GIL).  A pool
round trip costs ~0.1 ms, so submitted points wait in a backlog and
travel in chunks sized from the worker-side time of the points that came
back last: many sub-millisecond points per trip, a long point alone.
The chunk is transport only -- every point keeps its own future.
Determinism is structural -- every params dict carries its seed -- so
results are byte-identical across ``jobs`` settings and backends.

``InProcessBackend`` is the test double: synchronous execution with a
configurable roster of fake hosts and a fault-injection hook, so
worker-loss/retry behaviour is testable without processes.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

from repro.experiments.backends.base import (
    Backend,
    BackendUnavailableError,
    PointOutcome,
    PointTask,
    WorkerLostError,
    resolve_future,
)

__all__ = ["InProcessBackend", "LocalProcessBackend"]

LOCAL_HOST = "local"
#: worker-side seconds of points one pool round trip carries: what amortizes
#: the ~0.1 ms trip, and the finished work a killed worker can take with it
CHUNK_TARGET_S = 0.02
#: chunks shipped and not yet back, per worker: one running, one queued behind it
CHUNKS_PER_WORKER = 2


class LocalProcessBackend(Backend):
    """Today's process-pool path behind the :class:`Backend` protocol."""

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
            resolve_future(future, lambda: _run_inline(task))
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
                outer.set_result(PointOutcome(result[0], LOCAL_HOST, result[1]))
            elif isinstance(result, BrokenProcessPool):
                outer.set_exception(WorkerLostError(LOCAL_HOST, "process pool worker died"))
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


class InProcessBackend(Backend):
    """Synchronous backend with fake hosts and injectable worker faults.

    ``fault(task, host, attempt)`` is consulted before each execution;
    returning ``True`` simulates that host dying mid-task: the host is
    retired (no further assignments) and :class:`WorkerLostError` is
    raised exactly as a real backend would.  ``attempt`` counts per-task
    submissions (1-based), so tests can kill the first attempt and let
    the reassigned retry through.
    """

    name = "inprocess"

    def __init__(
        self,
        hosts: Optional[list] = None,
        fault: Optional[Callable[[PointTask, str, int], bool]] = None,
    ) -> None:
        self._hosts = list(hosts) if hosts else ["w0"]
        self._alive = set(self._hosts)
        self._fault = fault
        self._attempts: dict = {}
        self._rr = 0
        self.submitted = 0

    def kill_host(self, host: str) -> None:
        """Retire a host by name, as an external failure detector would."""
        self._alive.discard(host)

    def _pick_host(self) -> str:
        live = [h for h in self._hosts if h in self._alive]
        if not live:
            raise BackendUnavailableError(
                f"all {len(self._hosts)} in-process workers are dead"
            )
        host = live[self._rr % len(live)]
        self._rr += 1
        return host

    def submit(self, task: PointTask) -> "Future[PointOutcome]":
        future: Future = Future()
        resolve_future(future, lambda: self._run(task))
        return future

    def _run(self, task: PointTask) -> PointOutcome:
        host = self._pick_host()
        self.submitted += 1
        key = (task.experiment, _freeze(task.params))
        attempt = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempt
        if self._fault is not None and self._fault(task, host, attempt):
            self.kill_host(host)
            raise WorkerLostError(host, "fault injected")
        value, elapsed = _timed_point(task)
        return PointOutcome(value=value, host=host, elapsed=elapsed)

    def hosts(self) -> list:
        return [h for h in self._hosts if h in self._alive]


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


def _run_inline(task: PointTask) -> PointOutcome:
    value, elapsed = _timed_point(task)
    return PointOutcome(value=value, host=LOCAL_HOST, elapsed=elapsed)


def _freeze(obj):
    """Hashable identity for a canonical-JSON params dict."""
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, list):
        return tuple(_freeze(v) for v in obj)
    return obj

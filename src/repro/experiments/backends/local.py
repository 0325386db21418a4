"""Local execution backends: in-process (tests) and process-pool.

``LocalProcessBackend`` is the default and wraps the exact execution
strategy the runner used before backends existed: points run inline for
``jobs <= 1`` (no pool spawn, fail-fast, debugger-friendly) and fan out
over a :class:`~concurrent.futures.ProcessPoolExecutor` otherwise
(simulations are CPU-bound; threads would serialize on the GIL).
Determinism is structural -- every params dict carries its seed -- so
results are byte-identical across ``jobs`` settings and backends.

``InProcessBackend`` is the test double: synchronous execution with a
configurable roster of fake hosts and a fault-injection hook, so
worker-loss/retry behaviour is testable without processes or SSH.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

from repro.experiments import checkpoint
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


class LocalProcessBackend(Backend):
    """Today's process-pool path behind the :class:`Backend` protocol."""

    name = "local"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self._hint: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ------------------------------------------------

    def prepare(self, n_tasks: int) -> None:
        self._hint = max(1, n_tasks)

    def _inline(self) -> bool:
        """Mirror the historical runner: no pool for one job or one point."""
        return self.jobs <= 1 or self._hint == 1

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            workers = min(self.jobs, self._hint or self.jobs, os.cpu_count() or 1)
            self._pool = ProcessPoolExecutor(max_workers=workers)
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- Backend protocol ----------------------------------------------

    def submit(self, task: PointTask) -> "Future[PointOutcome]":
        if self._inline():
            future: Future = Future()
            resolve_future(future, lambda: _run_inline(task))
            return future
        # task.fn is a module-level function, so it pickles by reference;
        # unpickling it in a worker imports its module, which re-populates
        # the registry there as a side effect.
        outer: Future = Future()
        try:
            inner = self._ensure_pool().submit(_timed_point, task)
        except BrokenProcessPool:
            # the previous pool died; build a fresh one so a retry can run
            self._discard_pool()
            inner = self._ensure_pool().submit(_timed_point, task)
        inner.add_done_callback(lambda fut: self._finish(outer, fut))
        return outer

    def _finish(self, outer: Future, inner: Future) -> None:
        if outer.cancelled():
            return  # the runner aborted this sweep; nobody wants the value
        exc = inner.exception()
        if isinstance(exc, BrokenProcessPool):
            # a crashed worker poisons the whole pool; replace it so the
            # runner's resubmission lands on live processes
            self._discard_pool()
            outer.set_exception(WorkerLostError(LOCAL_HOST, "process pool worker died"))
        elif exc is not None:
            outer.set_exception(exc)
        else:
            value, elapsed = inner.result()
            outer.set_result(PointOutcome(value=value, host=LOCAL_HOST, elapsed=elapsed))

    def shutdown(self) -> None:
        if self._pool is not None:
            # cancel_futures: after an aborted sweep, queued points must not
            # keep burning CPU (and delaying exit) for results nobody reads
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def hosts(self) -> list:
        return [LOCAL_HOST]


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


def _timed_point(task: PointTask) -> tuple:
    """Worker-side wrapper: run a point and report its wall time.

    Routed through :func:`checkpoint.run_point` so pool workers honor the
    task's checkpoint policy exactly as remote workers honor the same
    ref in their wire job.
    """
    start = time.perf_counter()
    value = checkpoint.run_point(task.fn, task.params, task.experiment, task.checkpoint)
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

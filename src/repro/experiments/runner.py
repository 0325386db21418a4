"""Parallel sweep runner over the experiment registry.

Grid points are independent simulations, so a sweep is embarrassingly
parallel: cache misses fan out over an execution backend
(:mod:`repro.experiments.backends` -- a local process pool or an
in-process test double) while hits return instantly from the
content-addressed cache.  Determinism is structural: every point's
params dict carries its own explicit seed, so ``--jobs 1`` and
``--jobs N`` produce byte-identical results.

The runner owns fault tolerance.  Results are written to the local
cache *as they arrive* (not after the sweep) -- finished futures report
to one completion queue, first in first out, so collecting a point costs
the same whatever else is in flight -- and a partially failed sweep
re-executes only its missing points.  A worker dying mid-point raises
:class:`WorkerLostError` from the backend; the runner puts the point
back in the queue (bounded by ``max_retries`` per point) and the backend
stops assigning work to the casualty, so a sweep survives losing
workers mid-flight.

A requeued point is recomputed from zero: its params dict is its
checkpoint (seed included, a few hundred bytes), and the new attempt
reproduces the lost one byte for byte.  Points are short enough that
snapshotting them mid-run would cost more than it saves (measured in
``docs/sweeps.md``, "A lost point is recomputed").
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.experiments import registry
from repro.experiments.backends import (
    Backend,
    PointTask,
    WorkerLostError,
    backend_name,
    create_backend,
)
from repro.experiments.cache import ResultCache
from repro.experiments.registry import Experiment

__all__ = ["SweepError", "SweepReport", "run_experiment"]

#: per-point reassignment budget after worker losses
DEFAULT_MAX_RETRIES = 3


class SweepError(RuntimeError):
    """A sweep could not be completed (retry budget or backend exhausted)."""


@dataclass
class SweepReport:
    """Outcome of one sweep: the paper artifact plus execution accounting."""

    name: str
    result: object  # ExperimentResult
    grid: list = field(default_factory=list)
    points: int = 0
    cache_hits: int = 0
    executed: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    backend: str = "local"
    #: executed-point count per host, e.g. ``{"nodeA": 4, "nodeB": 3}``
    host_counts: dict = field(default_factory=dict)
    #: points resubmitted after a worker loss
    retries: int = 0

    def summary(self) -> str:
        executed = f"{self.executed} executed"
        if self.retries:
            executed += f" ({self.retries} retried)"
        text = (
            f"{self.name}: {self.points} points "
            f"({self.cache_hits} cached, {executed}, "
            f"jobs={self.jobs}, backend={self.backend}) in {self.elapsed:.2f}s"
        )
        if self.host_counts:
            per_host = " ".join(
                f"{host}={count}" for host, count in sorted(self.host_counts.items())
            )
            text += f" [hosts: {per_host}]"
        return text


def run_experiment(
    experiment: Union[str, Experiment],
    overrides: Optional[dict] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    backend: Union[str, Backend, None] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> SweepReport:
    """Run one experiment's full grid; returns the reduced result + stats.

    ``overrides`` are grid kwargs (``nodes``, ``total_time``, ``seed``,
    ...); unknown keys are dropped per-grid so one scale profile can be
    applied across heterogeneous experiments.  ``cache=None`` disables
    caching; pass a :class:`ResultCache` to reuse/populate entries.

    ``backend`` selects where cache-missing points execute: a name
    resolved via :func:`repro.experiments.backends.create_backend` with
    its defaults, or a ready :class:`Backend` instance -- the way in for
    one that needs arguments (an ``inprocess`` roster or fault hook) --
    which the caller keeps ownership of (it is not shut down here).  A
    name is checked before the cache is read, so a misspelt one fails
    whether or not any point would have executed.
    """
    backend_label = backend_name(backend)
    exp = registry.get(experiment) if isinstance(experiment, str) else experiment
    start = time.perf_counter()
    grid = exp.build_grid(overrides)
    if not grid:
        raise ValueError(
            f"experiment {exp.name!r} produced an empty grid "
            f"(overrides: {overrides!r})"
        )
    results: list = [None] * len(grid)

    pending = []
    hits = 0
    for i, params in enumerate(grid):
        cached = cache.get(exp.name, params) if cache is not None else None
        if cached is not None:
            results[i] = cached
            hits += 1
        else:
            pending.append(i)

    host_counts: dict = {}
    retries = 0
    if pending:
        borrowed = isinstance(backend, Backend)
        resolved = create_backend(backend, jobs=jobs)
        try:
            retries = _execute_pending(
                resolved, exp, grid, pending, results, cache, host_counts, max_retries
            )
        finally:
            if not borrowed:
                resolved.shutdown()

    reduced = exp.reduce(grid, results)
    return SweepReport(
        name=exp.name,
        result=reduced,
        grid=grid,
        points=len(grid),
        cache_hits=hits,
        executed=len(pending),
        jobs=jobs,
        elapsed=time.perf_counter() - start,
        backend=backend_label,
        host_counts=host_counts,
        retries=retries,
    )


def _execute_pending(
    backend: Backend,
    exp: Experiment,
    grid: list,
    pending: list,
    results: list,
    cache: Optional[ResultCache],
    host_counts: dict,
    max_retries: int,
) -> int:
    """Fan ``pending`` grid indices out over ``backend`` with retry.

    Completed values land in ``results`` and the cache *immediately*, so
    an aborted sweep resumes from exactly where it failed.  Returns the
    number of worker-loss resubmissions.
    """
    def submit(i: int):
        return backend.submit(PointTask(exp.name, grid[i], exp.point))

    backend.prepare(len(pending))
    in_flight: dict = {}
    # every in-flight future reports here once, in completion order, from
    # whatever thread resolves it: collecting one is O(1) in the rest
    finished: queue.SimpleQueue = queue.SimpleQueue()
    attempts = dict.fromkeys(pending, 1)
    retries = 0
    failure: Optional[BaseException] = None

    def track(future, i: int) -> None:
        in_flight[future] = i
        future.add_done_callback(finished.put)

    def complete(future, i: int) -> None:
        """Record one finished future: store+cache a value, or requeue a loss."""
        nonlocal retries, failure
        try:
            outcome = future.result()
        except WorkerLostError as loss:
            if failure is not None:
                return  # already aborting; don't resubmit
            if attempts[i] > max_retries:
                error = SweepError(
                    f"grid point {i} of {exp.name!r} failed "
                    f"{attempts[i]} times (last host: {loss.host}); "
                    f"giving up after max_retries={max_retries}"
                )
                error.__cause__ = loss
                failure = error
                return
            attempts[i] += 1
            retries += 1
            track(submit(i), i)
            return
        except BaseException as exc:  # noqa: BLE001 - non-retryable, re-raised below
            if failure is None:
                failure = exc
            return
        results[i] = outcome.value
        host_counts[outcome.host] = host_counts.get(outcome.host, 0) + 1
        if cache is not None:
            cache.put(exp.name, grid[i], outcome.value)
            cache.record(exp.name, grid[i], host=outcome.host, elapsed=outcome.elapsed)

    try:
        for i in pending:
            if failure is not None:
                break  # fail fast: don't schedule points past a fatal error
            future = submit(i)
            if future.done():
                # synchronous backends (inline local, in-process) resolve at
                # submit time; handling them here preserves serial fail-fast
                complete(future, i)
            else:
                track(future, i)
        while in_flight and failure is None:
            done = [finished.get()]  # wait for one, take what else is there
            while not finished.empty():  # this is the only consumer
                done.append(finished.get_nowait())
            for future in done:
                complete(future, in_flight.pop(future))
        if failure is not None:
            # stop scheduling, but harvest every point that did finish --
            # with streaming cache writes, a re-run resumes from here
            for future in list(in_flight):
                future.cancel()
            for future, i in list(in_flight.items()):
                if future.done() and not future.cancelled():
                    complete(future, i)
            raise failure
    except BaseException:
        for future in in_flight:
            future.cancel()
        raise
    return retries

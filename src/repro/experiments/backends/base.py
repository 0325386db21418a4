"""Execution-backend protocol for the sweep engine.

A grid point is a :class:`PointTask` -- experiment name + canonical-JSON
params + the point callable -- and because the params dict fully
determines the simulation (seed included), a task can execute in this
process, in a process pool or in a SLURM array task with the same result.  A :class:`Backend`
is the "where".

The contract is deliberately narrow:

* ``submit(task) -> concurrent.futures.Future[PointOutcome]`` -- schedule
  one task; the future resolves to the point's value plus the host that
  computed it.
* ``shutdown()`` -- release pools; backends are context managers.

Failure semantics split in two, and the split is what makes retry safe:

* :class:`WorkerLostError` -- the *worker* died (a crashed pool process,
  a killed or vanished array task, an injected fault).  The task itself is fine; the runner puts it back
  in the queue and the backend stops assigning work to the dead worker.
  Retryable.
* Any other exception out of ``future.result()`` -- the *point function*
  raised.  Re-running it elsewhere would fail identically (points are
  deterministic), so this propagates and aborts the sweep.  Not
  retryable.
"""

from __future__ import annotations

import abc
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "PointOutcome",
    "PointTask",
    "RemoteCodeMismatchError",
    "RemotePointError",
    "WorkerLostError",
]


@dataclass(frozen=True)
class PointTask:
    """One schedulable grid point.

    ``experiment`` + ``params`` are the location-independent description;
    ``fn`` is the already-resolved point callable, which pickles by
    reference into a pool worker.  A requeued task is the same
    description again: the point is recomputed from zero.
    """

    experiment: str
    params: dict
    fn: Callable[[dict], object]


@dataclass(frozen=True)
class PointOutcome:
    """A completed point: its value plus execution provenance."""

    value: object
    host: str
    elapsed: float = 0.0


class WorkerLostError(RuntimeError):
    """A worker/host died while (or before) executing a task.

    Retryable: the task is unharmed and can be reassigned.  ``host`` is
    the casualty so accounting and host-retirement know whom to blame.
    """

    def __init__(self, host: str, reason: str = "") -> None:
        self.host = host
        self.reason = reason
        super().__init__(f"worker lost on host {host!r}" + (f": {reason}" if reason else ""))


class BackendUnavailableError(RuntimeError):
    """No live workers remain; retrying cannot help.  Aborts the sweep."""


class RemotePointError(RuntimeError):
    """The point function raised *on the remote host*.

    Points are deterministic, so this would fail identically anywhere:
    not retryable.  Carries the remote traceback for diagnosis.
    """

    def __init__(self, host: str, error: str, remote_traceback: str = "") -> None:
        self.host = host
        self.remote_traceback = remote_traceback
        detail = f"point failed on host {host!r}: {error}"
        if remote_traceback:
            detail += f"\n--- remote traceback ---\n{remote_traceback}"
        super().__init__(detail)


class RemoteCodeMismatchError(RuntimeError):
    """The remote host runs different ``repro`` sources than we do.

    Results are cached under the *local* code-version hash, so accepting
    a value computed by different code would poison the cache.  Fail
    loudly instead.
    """

    def __init__(self, host: str, local_hash: str, remote_hash: str) -> None:
        self.host = host
        super().__init__(
            f"host {host!r} runs different repro sources "
            f"(local code hash {local_hash[:12]}..., remote {remote_hash[:12]}...); "
            "sync the repo on that host before sweeping"
        )


class Backend(abc.ABC):
    """Where grid points execute.  See the module docstring for the contract."""

    #: short identifier used in reports and the CLI (``--backend NAME``)
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

    def flush(self) -> None:
        """Optional hint: no more submissions are imminent.

        The runner calls this after each submission burst, so a backend
        that buffers submitted tasks can dispatch them at once.  No-op by
        default.
        """

    def shutdown(self) -> None:
        """Release worker pools.  Idempotent."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def resolve_future(future: Future, compute: Callable[[], PointOutcome]) -> None:
    """Run ``compute`` and store its outcome (or exception) on ``future``."""
    try:
        outcome = compute()
    except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
        future.set_exception(exc)
    else:
        future.set_result(outcome)

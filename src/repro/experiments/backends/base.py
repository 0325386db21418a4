"""Execution-backend protocol for the sweep engine.

The paper's setting is a *cluster federation*: loosely-coupled clusters
whose resources are aggregated over WAN links.  The sweep engine mirrors
that shape.  A grid point is a :class:`PointTask` -- experiment name +
canonical-JSON params + the local point callable -- and because the
params dict fully determines the simulation (seed included), a task can
execute *anywhere*: in this process, in a local process pool, or on a
remote host reached over SSH.  A :class:`Backend` is the "where".

The contract is deliberately narrow:

* ``submit(task) -> concurrent.futures.Future[PointOutcome]`` -- schedule
  one task; the future resolves to the point's value plus the host that
  computed it.
* ``shutdown()`` -- release pools/connections; backends are context
  managers.

Failure semantics split in two, and the split is what makes retry safe:

* :class:`WorkerLostError` -- the *worker* died (SSH transport failure,
  crashed pool process, killed host).  The task itself is fine; the
  runner puts it back in the queue and the backend stops assigning work
  to the dead host.  Retryable.
* Any other exception out of ``future.result()`` -- the *point function*
  raised.  Re-running it elsewhere would fail identically (points are
  deterministic), so this propagates and aborts the sweep.  Not
  retryable.
"""

from __future__ import annotations

import abc
import shlex
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "PointOutcome",
    "PointTask",
    "RemoteCodeMismatchError",
    "RemotePointError",
    "WorkerLostError",
    "worker_shell_line",
]

#: the stdin/stdout worker every distributed backend runs
WORKER_MODULE = "repro.experiments.remote_worker"


@dataclass(frozen=True)
class PointTask:
    """One schedulable grid point.

    ``experiment`` + ``params`` are the location-independent description
    (what a remote worker needs); ``fn`` is the already-resolved local
    callable (what in-process backends call directly).  ``checkpoint``
    is the point's snapshot policy ref ``{every, wall, dir, key}``, or
    ``None``: the runner fills it in and every backend hands it to the
    worker unchanged (in the wire job, for the distributed ones), so a
    point checkpoints the same way wherever an attempt lands.
    """

    experiment: str
    params: dict
    fn: Callable[[dict], object]
    checkpoint: Optional[dict] = None


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

        Batching backends (SLURM array jobs) buffer submitted tasks
        briefly to group them into one scheduler job; the runner calls
        this after each submission burst so buffered tasks are dispatched
        immediately instead of waiting out the linger window.  No-op by
        default.
        """

    def shutdown(self) -> None:
        """Release worker pools/connections.  Idempotent."""

    def hosts(self) -> list:
        """Names of hosts this backend can currently assign work to."""
        return []

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


@dataclass
class _HostState:
    """Shared bookkeeping for backends that juggle multiple hosts."""

    name: str
    slots: int = 1
    free: int = 0
    alive: bool = True
    strikes: int = 0
    extra: dict = field(default_factory=dict)


def resolve_future(future: Future, compute: Callable[[], PointOutcome]) -> None:
    """Run ``compute`` and store its outcome (or exception) on ``future``."""
    try:
        outcome = compute()
    except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
        future.set_exception(exc)
    else:
        future.set_result(outcome)


def tail_text(blob: bytes, limit: int = 300) -> str:
    """The last ``limit`` characters of a subprocess stream, for error messages."""
    text = blob.decode(errors="replace").strip()
    return text[-limit:] if len(text) > limit else text


def worker_shell_line(
    python: str,
    cwd: Optional[str] = None,
    pythonpath: Optional[str] = None,
    spooled: bool = False,
) -> str:
    """The one shell line that runs the worker on a remote side, safely quoted.

    ``cd`` into the checkout, prepend ``pythonpath``, run the worker on
    stdin/stdout (what SSH pipes).  ``spooled`` is the batch form: job
    from ``$task``, envelope to ``$out`` by write-then-rename, so a
    result file is complete the instant it exists.
    """
    steps = []
    if cwd:
        steps.append(f"cd {shlex.quote(cwd)}")
    if pythonpath:
        # export is a declaration utility: no word splitting on the suffix
        steps.append(
            f"export PYTHONPATH={shlex.quote(pythonpath)}" + "${PYTHONPATH:+:$PYTHONPATH}"
        )
    run = f"{shlex.quote(python)} -m {WORKER_MODULE}"
    if spooled:
        run += ' < "$task" > "$out.tmp" && mv "$out.tmp" "$out"'
    return " && ".join([*steps, run])

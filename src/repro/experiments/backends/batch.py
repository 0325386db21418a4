"""Scheduler-agnostic substrate for batch-submission backends.

Real federation sites take work through a batch scheduler, and the two
big scheduler families -- SLURM-style array jobs and Kubernetes-style
indexed Jobs -- share almost all of their sweep-side machinery.  This
module is that shared machinery, extracted so each concrete backend only
has to answer two questions: *how is one batch described to the
scheduler* (an ``sbatch`` script, a Job manifest) and *what do the
scheduler's task states mean*.

The common shape:

* Cache-missing grid points submitted close together are buffered
  (``linger`` window, ``prepare``/``flush`` hints from the runner) and
  dispatched as **one** scheduler batch of up to ``batch_size`` tasks.
* Each batch gets a job directory under a shared spool: every point's
  wire job (the exact :func:`encode_wire_job` text the SSH backend
  pipes) is written to ``tasks/<i>.json``, and task *i* runs the shared
  worker line
  (:func:`~repro.experiments.backends.base.worker_shell_line`), leaving
  its response envelope at ``results/<i>.json`` -- write-then-rename, so
  a result file is complete the instant it exists.
* A polling thread harvests result envelopes (an envelope always beats
  possibly-stale scheduler state) and maps the remaining task states
  through the subclass's ``active`` / ``lost`` / ``completed``
  vocabularies, with ``unknown_grace`` / ``completed_grace`` tolerances
  for scheduler amnesia and shared-filesystem lag.
* Failure semantics follow the backend contract: a task that ends in a
  lost state, times out, or vanishes raises :class:`WorkerLostError`, so
  the runner requeues the point and resubmissions go out as a fresh
  batch, where each lost point is recomputed from its params.  A point
  *raising* inside the worker comes back in the envelope as a
  deterministic :class:`RemotePointError` (not retryable), and the
  code-hash handshake refuses results from out-of-sync checkouts.

Scheduler interaction goes through a pluggable :class:`BatchTransport`
(``sbatch``/``squeue``/``sacct`` for SLURM, ``kubectl`` for Kubernetes;
both real ones are :class:`CliTransport` dialects), which is also the
test seam: in-memory transports and the ``tools/stub_slurm.py`` /
``tools/stub_k8s.py`` mini-schedulers drive the exact same code paths CI
cannot reach with a real cluster.
"""

from __future__ import annotations

import abc
import json
import os
import re
import shlex
import shutil
import subprocess
import threading
import time
from concurrent.futures import Future, InvalidStateError
from pathlib import Path
from typing import Optional

from repro.experiments.backends.base import (
    Backend,
    BackendUnavailableError,
    PointOutcome,
    PointTask,
    WorkerLostError,
    tail_text,
    worker_shell_line,
)
from repro.experiments.remote_worker import decode_envelope, encode_wire_job

__all__ = [
    "BatchBackend",
    "BatchJob",
    "BatchTransport",
    "CliTransport",
    "expand_indices",
    "normalize_state",
]


#: one array-index chunk: ``7``, ``0-15``, ``0-15:4``, each with an optional
#: ``%limit`` throttle suffix (squeue prints the array throttle inline)
_CHUNK_RE = re.compile(r"^(\d+)(?:-(\d+)(?::(\d+))?)?(?:%(\d+))?$")


def expand_indices(token: str) -> list:
    """Expand a scheduler task-index token into a list of task indices.

    Understands every form the real ``squeue``/``sacct`` emit: single
    indices (``3``), ranges (``[0-4]``), stepped ranges (``0-15:4``),
    ``%limit`` throttle suffixes (``[0-31%8]``, ``5%1``, ``0-15:4%2``),
    and comma lists mixing all of the above (``0,4-12:4``).

    Anything else raises :class:`ValueError` **loudly**.  The old
    behavior -- silently skipping malformed chunks, so an unrecognized
    token expanded to ``[]`` -- meant the affected tasks were never
    marked and burned ``unknown_grace`` polls before being declared
    vanished.  Poll-path callers that must not raise catch this and
    treat the token as "no state learned" explicitly (with a warning),
    instead of the parser hiding the problem.
    """
    def bad(why: str) -> ValueError:
        return ValueError(f"unrecognized scheduler array-index token {token!r} ({why})")

    text = token.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    indices: list = []
    for chunk in text.split(","):
        match = _CHUNK_RE.match(chunk.strip())
        if match is None:
            raise bad(f"cannot parse chunk {chunk.strip()!r}")
        lo, hi, step, limit = match.groups()
        if limit is not None and int(limit) < 1:
            raise bad(f"throttle %{limit} must be >= 1")
        if hi is None:
            indices.append(int(lo))
            continue
        lo_i, hi_i = int(lo), int(hi)
        step_i = int(step) if step is not None else 1
        if step_i < 1:
            raise bad(f"step :{step} must be >= 1")
        if hi_i < lo_i:
            raise bad(f"descending range {lo_i}-{hi_i}")
        indices.extend(range(lo_i, hi_i + 1, step_i))
    return indices


def normalize_state(state: str) -> str:
    """One canonical state word from raw scheduler output.

    Schedulers decorate states -- ``CANCELLED by 0`` (sacct's actor
    suffix), ``COMPLETED+`` (truncation marker) -- and the decoration
    varies between commands.  Every parser must normalize identically or
    a state drifts between "lost" and "unknown" depending on which
    command reported it first.  Whitespace-only input yields ``""``
    (treated as unknown), never an exception.
    """
    words = state.split()
    return words[0].upper().rstrip("+") if words else ""


class BatchTransport(abc.ABC):
    """How a batch backend talks to its scheduler.  Stubbable in tests."""

    @abc.abstractmethod
    def submit(self, job_dir: Path, spec: Path, n_tasks: int) -> str:
        """Submit the batch described by ``spec``; returns the job id.

        ``spec`` is whatever :meth:`BatchBackend._write_submission`
        produced (an sbatch script, a Job manifest).  Raises
        :class:`WorkerLostError` for a failed submission (retryable: the
        queue may have been momentarily full) and
        :class:`BackendUnavailableError` when the scheduler cannot be
        reached at all (submission binary missing).
        """

    @abc.abstractmethod
    def poll(self, job_id: str) -> dict:
        """Best-effort state per task index, e.g. ``{0: "RUNNING"}``.

        Missing indices mean "unknown"; the backend tolerates a few
        unknown polls before declaring a task lost.  Never raises.
        """

    @abc.abstractmethod
    def cancel(self, target: str) -> None:
        """Best-effort cancellation of a job (or one task).  Never raises."""


class CliTransport(BatchTransport):
    """A scheduler reached by shelling out to its command-line client.

    Owns what every such dialect needs: the argv prefix (how tests and CI
    substitute a stub scheduler), the submission conversation with its
    failure taxonomy, quiet best-effort queries, and best-effort cancel.
    A dialect names its ``host`` label and submission ``verb`` for error
    messages and fills in four small hooks.
    """

    host = "?"
    verb = "submit"

    def __init__(self, command_prefix: tuple, timeout: float = 60.0) -> None:
        self.prefix = tuple(command_prefix)
        self.timeout = timeout

    def _argv(self, *args: str) -> list:
        return [*self.prefix, *args]

    @abc.abstractmethod
    def _submit_args(self, spec: Path) -> tuple:
        """The client arguments that submit ``spec``."""

    @abc.abstractmethod
    def _parse_job_id(self, stdout: str) -> str:
        """The job id in the submission's (stripped) stdout, or ``""``."""

    @abc.abstractmethod
    def _cancel_args(self, target: str) -> tuple:
        """The client arguments that cancel ``target``."""

    @abc.abstractmethod
    def _cancel_orphan(self, spec: Path) -> None:
        """Cancel, by the unique name in ``spec``, a job whose id was never read."""

    def submit(self, job_dir: Path, spec: Path, n_tasks: int) -> str:
        argv = self._argv(*self._submit_args(spec))
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=self.timeout)
        except OSError as exc:
            raise BackendUnavailableError(
                f"cannot launch {self.verb.split()[0]} ({argv[0]!r}): {exc}"
            ) from None
        except subprocess.TimeoutExpired:
            # the scheduler may have accepted the job without the client
            # reporting it; the orphan must not run the same points the
            # retry will resubmit
            self._cancel_orphan(spec)
            raise WorkerLostError(
                self.host, f"{self.verb} gave no job id within {self.timeout:g}s"
            ) from None
        if proc.returncode != 0:
            raise WorkerLostError(
                self.host, f"{self.verb} exit {proc.returncode}: {tail_text(proc.stderr)}"
            )
        job_id = self._parse_job_id(proc.stdout.decode(errors="replace").strip())
        if not job_id:
            raise WorkerLostError(self.host, f"{self.verb} printed no job id")
        return job_id

    def _run_quiet(self, *args: str) -> Optional[str]:
        """The client's stdout, or ``None`` on any failure (never raises)."""
        try:
            proc = subprocess.run(
                self._argv(*args), capture_output=True, timeout=self.timeout
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            # e.g. squeue "Invalid job id" once the job left the queue, or
            # the namespace disappeared mid-sweep
            return None
        return proc.stdout.decode(errors="replace")

    def cancel(self, target: str) -> None:
        self._run_quiet(*self._cancel_args(target))


class _TaskSlot:
    """One submitted point waiting on a batch task."""

    __slots__ = ("task", "future", "unknown_polls", "completed_polls")

    def __init__(self, task: PointTask, future: Future) -> None:
        self.task = task
        self.future = future
        self.unknown_polls = 0
        self.completed_polls = 0


class BatchJob:
    """One submitted scheduler batch and its per-index slots."""

    def __init__(self, job_id: str, job_dir: Path, slots: list) -> None:
        self.job_id = job_id
        self.dir = job_dir
        self.slots = dict(enumerate(slots))
        self.submitted = time.monotonic()
        self.failed = False

    def unresolved(self) -> dict:
        return {i: s for i, s in self.slots.items() if not s.future.done()}


class BatchBackend(Backend):
    """Batch cache-missing grid points into scheduler jobs.

    Subclasses provide the scheduler vocabulary (``active_states`` /
    ``lost_states`` / ``completed_states``, a ``task_noun`` for error
    messages, the ``index_var`` a task reads its index from) and two
    hooks: :meth:`_write_submission` renders the per-batch submission
    artifact into the job directory, and :meth:`_cancel_target` names
    what to cancel when one task times out.
    """

    #: scheduler states that mean "the task can still produce a result"
    active_states: frozenset = frozenset()
    #: terminal states that mean "the task died without a result": retryable
    lost_states: frozenset = frozenset()
    #: terminal success states; a result envelope must (eventually) exist
    completed_states: frozenset = frozenset({"COMPLETED"})
    #: how error messages name one task ("array task 3", "completion index 3")
    task_noun: str = "task"
    #: environment variable the scheduler sets to a task's index
    index_var: str = "TASK_INDEX"

    def __init__(
        self,
        transport: BatchTransport,
        spool: Path,
        python: str = "python3",
        cwd: Optional[str] = None,
        pythonpath: Optional[str] = None,
        batch_size: int = 500,
        linger: float = 0.2,
        poll_interval: float = 1.0,
        point_timeout: Optional[float] = None,
        unknown_grace: int = 10,
        completed_grace: int = 5,
    ) -> None:
        self.transport = transport
        self.spool = Path(spool)
        self.python = python
        self.cwd = cwd
        self.pythonpath = pythonpath
        self.batch_size = max(1, int(batch_size))
        self.linger = max(0.0, float(linger))
        self.poll_interval = max(0.005, float(poll_interval))
        self.point_timeout = point_timeout
        self.unknown_grace = max(1, int(unknown_grace))
        self.completed_grace = max(1, int(completed_grace))

        self._cond = threading.Condition()
        self._buffer: list = []
        self._buffer_since = 0.0
        self._flush_asap = False
        self._expected: Optional[int] = None
        self._jobs: list = []
        self._job_seq = 0
        self._closing = False
        self._thread: Optional[threading.Thread] = None
        self._sweep_dir: Optional[Path] = None

    # -- subclass hooks ------------------------------------------------

    @abc.abstractmethod
    def _write_submission(self, job_dir: Path, n_tasks: int) -> Path:
        """Render the submission artifact for one batch; returns its path.

        Called after ``tasks/<i>.json`` wire jobs are in place.  The
        returned path is handed to :meth:`BatchTransport.submit` as
        ``spec``.  May raise :class:`OSError` (treated as a retryable
        spool-write failure).
        """

    def _cancel_target(self, job_id: str, index: int) -> str:
        """What to cancel when task ``index`` times out (default: the job)."""
        return job_id

    def _worker_script(self, job_dir: Path) -> str:
        """What one task runs: its spool paths, then the shared worker line."""
        quoted = shlex.quote(str(job_dir))
        lines = [
            "set -u",
            f'task={quoted}/tasks/"${self.index_var}".json',
            f'out={quoted}/results/"${self.index_var}".json',
            worker_shell_line(self.python, self.cwd, self.pythonpath, spooled=True),
        ]
        return "\n".join(lines) + "\n"

    # -- Backend protocol ----------------------------------------------

    def prepare(self, n_tasks: int) -> None:
        with self._cond:
            self._expected = max(1, n_tasks)

    def submit(self, task: PointTask) -> "Future[PointOutcome]":
        future: Future = Future()
        with self._cond:
            if self._closing:
                raise BackendUnavailableError(f"{self.name} backend is shutting down")
            if not self._buffer:
                self._buffer_since = time.monotonic()
            self._buffer.append(_TaskSlot(task, future))
            self._ensure_thread()
            self._cond.notify_all()
        return future

    def flush(self) -> None:
        with self._cond:
            if self._buffer:
                self._flush_asap = True
                self._cond.notify_all()

    def shutdown(self) -> None:
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=30.0)
        # fail anything still unresolved and cancel scheduler leftovers
        for job in self._jobs:
            leftovers = job.unresolved()
            if leftovers:
                self.transport.cancel(job.job_id)
            for slot in leftovers.values():
                slot.future.cancel()
        for slot in self._buffer:
            slot.future.cancel()
        self._buffer.clear()
        self._cleanup_sweep_dir()

    def hosts(self) -> list:
        return [self.name]

    # -- submission loop -----------------------------------------------

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._loop, name=f"{self.name}-sweep", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        next_poll = time.monotonic()
        while True:
            with self._cond:
                if self._closing:
                    return
                timeout = min(
                    self.poll_interval,
                    self.linger if self._buffer else self.poll_interval,
                    max(0.0, next_poll - time.monotonic()),
                    0.2,
                )
                self._cond.wait(timeout=max(0.005, timeout))
                if self._closing:
                    return
                batch = self._take_ready_batch()
            if batch:
                self._submit_batch_job(batch)
            if time.monotonic() >= next_poll:
                self._poll_jobs()
                next_poll = time.monotonic() + self.poll_interval

    def _take_ready_batch(self) -> list:
        """Under the lock: pop the buffer if it is ripe for submission."""
        if not self._buffer:
            return []
        ripe = (
            self._flush_asap
            or len(self._buffer) >= self.batch_size
            or (self._expected is not None and len(self._buffer) >= self._expected)
            or time.monotonic() - self._buffer_since >= self.linger
        )
        if not ripe:
            return []
        batch, self._buffer = self._buffer[: self.batch_size], self._buffer[self.batch_size:]
        if not self._buffer:
            self._flush_asap = False
        if self._expected is not None:
            # once the prepared burst is dispatched, later submissions are
            # retries of unknown count: fall back to linger/flush batching
            remaining = self._expected - len(batch)
            self._expected = remaining if remaining > 0 else None
        return batch

    # -- batch job lifecycle -------------------------------------------

    def _ensure_sweep_dir(self) -> Path:
        if self._sweep_dir is None:
            root = self.spool / f"sweep-{os.getpid()}-{int(time.time() * 1000):x}"
            root.mkdir(parents=True, exist_ok=True)
            self._sweep_dir = root
        return self._sweep_dir

    def _submit_batch_job(self, slots: list) -> None:
        self._job_seq += 1
        try:
            job_dir = self._ensure_sweep_dir() / f"job-{self._job_seq:04d}"
            (job_dir / "tasks").mkdir(parents=True)
            (job_dir / "results").mkdir()
            (job_dir / "logs").mkdir()
            for i, slot in enumerate(slots):
                (job_dir / "tasks" / f"{i}.json").write_text(
                    encode_wire_job(slot.task), encoding="utf-8"
                )
            spec = self._write_submission(job_dir, len(slots))
        except OSError as exc:
            self._fail_slots(slots, WorkerLostError(self.name, f"cannot write spool: {exc}"))
            return
        try:
            job_id = self.transport.submit(job_dir, spec, len(slots))
        except BaseException as exc:  # noqa: BLE001 - delivered through the futures
            self._fail_slots(slots, exc)
            return
        with self._cond:
            self._jobs.append(BatchJob(job_id, job_dir, slots))

    @staticmethod
    def _fail_slots(slots: list, exc: BaseException) -> None:
        for slot in slots:
            _set_exception(slot.future, exc)

    # -- polling -------------------------------------------------------

    def _poll_jobs(self) -> None:
        with self._cond:
            jobs = list(self._jobs)
        for job in jobs:
            self._poll_job(job)
        with self._cond:
            self._jobs = [j for j in self._jobs if j.unresolved()]
        for job in jobs:
            if not job.unresolved():
                self._finalize_job(job)

    def _poll_job(self, job: BatchJob) -> None:
        unresolved = job.unresolved()
        if not unresolved:
            return
        # harvest result files first: a finished task's envelope beats any
        # (possibly stale) scheduler state
        need_states = {}
        for i, slot in list(unresolved.items()):
            result_path = job.dir / "results" / f"{i}.json"
            if result_path.exists():
                self._resolve_from_file(job, i, slot, result_path)
            else:
                need_states[i] = slot
        if not need_states:
            return
        states = self.transport.poll(job.job_id)
        timed_out = (
            self.point_timeout is not None
            and time.monotonic() - job.submitted > self.point_timeout
        )
        cancelled_targets: set = set()
        for i, slot in need_states.items():
            if slot.future.done():
                continue
            state = states.get(i)
            if timed_out:
                # dedupe: schedulers without per-task cancel (k8s) name the
                # whole job for every index, and one delete is enough
                target = self._cancel_target(job.job_id, i)
                if target not in cancelled_targets:
                    cancelled_targets.add(target)
                    self.transport.cancel(target)
                self._lose(job, i, slot, f"no result within {self.point_timeout:g}s")
            elif state in self.active_states:
                slot.unknown_polls = 0
                slot.completed_polls = 0
            elif state in self.lost_states:
                self._lose(job, i, slot, f"{self.task_noun} {i} ended {state}")
            elif state in self.completed_states:
                # completed per the scheduler but the result file has not
                # appeared: allow for shared-filesystem lag, then give up
                slot.completed_polls += 1
                if slot.completed_polls >= self.completed_grace:
                    self._lose(
                        job, i, slot, f"{self.task_noun} {i} completed without a result"
                    )
            else:
                slot.unknown_polls += 1
                if slot.unknown_polls >= self.unknown_grace:
                    self._lose(
                        job, i, slot, f"{self.task_noun} {i} vanished from the scheduler"
                    )

    def _resolve_from_file(self, job: BatchJob, i: int, slot: _TaskSlot, path: Path) -> None:
        host = f"{self.name}:{job.job_id}"
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._lose(job, i, slot, f"garbled result file {path.name}: {exc}")
            return
        try:
            value = decode_envelope(envelope, host)
        except BaseException as exc:  # noqa: BLE001 - delivered through the future
            _set_exception(slot.future, exc)
            job.failed = True
            return
        elapsed = float(envelope.get("elapsed", 0.0) or 0.0)
        _set_result(slot.future, PointOutcome(value=value, host=host, elapsed=elapsed))

    def _lose(self, job: BatchJob, i: int, slot: _TaskSlot, reason: str) -> None:
        job.failed = True
        _set_exception(slot.future, WorkerLostError(f"{self.name}:{job.job_id}", reason))

    def _finalize_job(self, job: BatchJob) -> None:
        if not job.failed:  # failed-job spools are kept for post-mortems
            shutil.rmtree(job.dir, ignore_errors=True)

    def _cleanup_sweep_dir(self) -> None:
        if self._sweep_dir is None:
            return
        try:
            self._sweep_dir.rmdir()  # only if every job dir was cleaned up
        except OSError:
            pass


def _set_result(future: Future, outcome: PointOutcome) -> None:
    try:
        future.set_result(outcome)
    except InvalidStateError:
        pass  # the runner cancelled this point (sweep aborting)


def _set_exception(future: Future, exc: BaseException) -> None:
    try:
        future.set_exception(exc)
    except InvalidStateError:
        pass

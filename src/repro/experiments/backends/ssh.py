"""SSH fan-out backend: execute grid points on a federation of hosts.

Each cache-missing point travels as a self-contained JSON job over
``ssh <host> python -m repro.experiments.remote_worker`` -- the params
dict fully determines the simulation (seed included), so the only state
a remote host needs is the same ``repro`` sources.  The worker streams
back a JSON envelope carrying the pickled point value, so the submitter
receives exactly the object a local run would have produced; the
envelope's code hash is checked against ours before the value is
trusted (accepting results from out-of-sync sources would poison the
content-addressed cache).

Scheduling: every host contributes ``slots`` concurrent seats.  A thread
pool sized to the total seat count runs one SSH session per in-flight
point; seats are handed to the least-loaded live host.  Transport-level
failures (connect refused, non-zero exit, truncated stream, timeout)
raise :class:`WorkerLostError`; after ``max_host_strikes`` such failures
a host is retired and its in-flight points are reassigned by the
runner's retry loop.  A point function *raising* remotely is reported in
the envelope and is not retryable -- points are deterministic, so it
would fail identically anywhere.

Values arrive pickled from hosts the operator listed in ``--hosts``;
only point your roster at machines you trust (the same trust ``ssh``
itself implies).
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Optional

from repro.experiments.backends.base import (
    Backend,
    BackendUnavailableError,
    PointOutcome,
    PointTask,
    WorkerLostError,
    _HostState,
    tail_text as _tail,
    worker_shell_line,
)
from repro.experiments.backends.hosts import HostSpec
from repro.experiments.remote_worker import decode_envelope, encode_wire_job

__all__ = ["SSHBackend", "DEFAULT_SSH_COMMAND", "default_ssh_command"]

#: BatchMode forbids password prompts -- a sweep must never hang on a tty
DEFAULT_SSH_COMMAND = ("ssh", "-o", "BatchMode=yes", "-o", "ConnectTimeout=10")

#: overrides the transport command line (shlex-split), e.g. to add jump
#: hosts/options or to substitute a stub transport in tests and CI
_SSH_COMMAND_ENV = "REPRO_SSH_COMMAND"


def default_ssh_command() -> tuple:
    """The transport argv prefix: ``$REPRO_SSH_COMMAND`` or plain ssh."""
    env = os.environ.get(_SSH_COMMAND_ENV)
    if env:
        return tuple(shlex.split(env))
    return DEFAULT_SSH_COMMAND


class SSHBackend(Backend):
    """Fan grid points out over SSH to a roster of :class:`HostSpec`."""

    name = "ssh"

    def __init__(
        self,
        hosts: list,
        ssh_command: Optional[tuple] = None,
        point_timeout: Optional[float] = None,
        max_host_strikes: int = 2,
    ) -> None:
        if not hosts:
            raise ValueError("SSHBackend needs at least one host")
        self.ssh_command = tuple(ssh_command) if ssh_command else default_ssh_command()
        self.point_timeout = point_timeout
        self.max_host_strikes = max(1, int(max_host_strikes))
        self._states = {
            spec.name: _HostState(
                name=spec.name, slots=spec.slots, free=spec.slots, extra={"spec": spec}
            )
            for spec in hosts
        }
        if len(self._states) != len(hosts):
            raise ValueError("duplicate host names in roster")
        self._cond = threading.Condition()
        self._closing = False
        total_slots = sum(spec.slots for spec in hosts)
        self._pool = ThreadPoolExecutor(
            max_workers=total_slots, thread_name_prefix="ssh-sweep"
        )

    # -- seat allocation ----------------------------------------------

    def _acquire(self) -> HostSpec:
        with self._cond:
            while not self._closing:
                live = [s for s in self._states.values() if s.alive]
                if not live:
                    raise BackendUnavailableError(
                        "all SSH hosts are dead: "
                        + ", ".join(sorted(self._states))
                    )
                seated = [s for s in live if s.free > 0]
                if seated:
                    state = max(seated, key=lambda s: s.free)
                    state.free -= 1
                    return state.extra["spec"]
                self._cond.wait(timeout=0.25)
            raise BackendUnavailableError("SSH backend is shutting down")

    def _release(self, host: str) -> None:
        with self._cond:
            self._states[host].free += 1
            self._cond.notify_all()

    def _strike(self, host: str) -> None:
        with self._cond:
            state = self._states[host]
            state.strikes += 1
            if state.strikes >= self.max_host_strikes:
                state.alive = False
            else:
                state.free += 1
            self._cond.notify_all()

    # -- Backend protocol ----------------------------------------------

    def submit(self, task: PointTask) -> "Future[PointOutcome]":
        return self._pool.submit(self._run, task)

    def _run(self, task: PointTask) -> PointOutcome:
        spec = self._acquire()
        try:
            outcome = self._execute(spec, task)
        except WorkerLostError:
            self._strike(spec.name)
            raise
        except BaseException:
            self._release(spec.name)
            raise
        self._release(spec.name)
        return outcome

    def _execute(self, spec: HostSpec, task: PointTask) -> PointOutcome:
        job = encode_wire_job(task)
        argv = [
            *self.ssh_command,
            spec.name,
            worker_shell_line(spec.python, spec.cwd, spec.pythonpath),
        ]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv,
                input=job.encode(),
                capture_output=True,
                timeout=self.point_timeout,
            )
        except subprocess.TimeoutExpired:
            raise WorkerLostError(
                spec.name, f"no result within {self.point_timeout:g}s"
            ) from None
        except OSError as exc:
            raise WorkerLostError(spec.name, f"cannot launch ssh: {exc}") from None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise WorkerLostError(
                spec.name,
                f"exit {proc.returncode}: {_tail(proc.stderr)}",
            )
        try:
            envelope = json.loads(proc.stdout.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise WorkerLostError(
                spec.name, f"truncated/garbled result stream: {_tail(proc.stdout)}"
            ) from None
        value = decode_envelope(envelope, spec.name)
        return PointOutcome(value=value, host=spec.name, elapsed=elapsed)

    def shutdown(self) -> None:
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._pool.shutdown(wait=False, cancel_futures=True)

    def hosts(self) -> list:
        with self._cond:
            return sorted(s.name for s in self._states.values() if s.alive)

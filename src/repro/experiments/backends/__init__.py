"""Execution backends for the sweep engine.

A grid point is location-independent -- its params dict (seed included)
fully determines the simulation -- so *where* points execute is a
policy behind the :class:`Backend` protocol:

* ``local`` (:class:`LocalProcessBackend`) -- the default; inline for
  ``jobs <= 1``, a :class:`~concurrent.futures.ProcessPoolExecutor`
  otherwise.
* ``slurm`` (:class:`SlurmBackend`) -- batches points into SLURM array
  jobs submitted through ``sbatch`` and polled via ``squeue``/``sacct``
  (pluggable :class:`BatchTransport`; results spool through a shared
  directory), on the
  :class:`~repro.experiments.backends.batch.BatchBackend` substrate.
* ``inprocess`` (:class:`InProcessBackend`) -- synchronous test double
  with fake hosts and fault injection.

A :class:`PointTask` reaches its worker one way on all of them: the
experiment's point function is called on the task's params, directly
(``local``, ``inprocess``) or by the worker that reads the one wire job
:func:`repro.experiments.remote_worker.encode_wire_job` builds
(``slurm``).

``create_backend`` is the CLI/runner factory.  The runner owns retry:
a :class:`WorkerLostError` puts the point back in the queue and the
backend stops assigning to the dead worker, so a sweep survives losing
workers mid-flight.
"""

from __future__ import annotations

from typing import Union

from repro.experiments.backends.base import (
    Backend,
    BackendUnavailableError,
    PointOutcome,
    PointTask,
    RemoteCodeMismatchError,
    RemotePointError,
    WorkerLostError,
)
from repro.experiments.backends.batch import BatchBackend, BatchTransport, CliTransport
from repro.experiments.backends.local import InProcessBackend, LocalProcessBackend
from repro.experiments.backends.slurm import SlurmBackend, SlurmCliTransport

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "BACKEND_NAMES",
    "BatchBackend",
    "BatchTransport",
    "CliTransport",
    "InProcessBackend",
    "LocalProcessBackend",
    "PointOutcome",
    "PointTask",
    "RemoteCodeMismatchError",
    "RemotePointError",
    "SlurmBackend",
    "SlurmCliTransport",
    "WorkerLostError",
    "backend_name",
    "create_backend",
]

#: names accepted by ``--backend`` / :func:`create_backend`
BACKEND_NAMES = ("local", "slurm", "inprocess")


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


def create_backend(spec: Union[str, Backend, None], jobs: int = 1, **kwargs) -> Backend:
    """Resolve a backend name (or pass an instance through) to a Backend.

    Extra ``kwargs`` go to the backend constructor (e.g. ``spool`` for
    ``slurm``, ``hosts`` or ``fault`` for ``inprocess``).
    """
    if isinstance(spec, Backend):
        return spec
    name = backend_name(spec)
    if name == "local":
        return LocalProcessBackend(jobs=jobs, **kwargs)
    if name == "slurm":
        return SlurmBackend(**kwargs)
    return InProcessBackend(**kwargs)

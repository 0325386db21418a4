"""Pluggable execution backends for the sweep engine.

A grid point is location-independent -- its params dict (seed included)
fully determines the simulation -- so *where* points execute is a
pluggable policy behind the :class:`Backend` protocol:

* ``local`` (:class:`LocalProcessBackend`) -- the default; inline for
  ``jobs <= 1``, a :class:`~concurrent.futures.ProcessPoolExecutor`
  otherwise.  Byte-identical to the pre-backend runner.
* ``ssh`` (:class:`SSHBackend`) -- fans cache-missing points out to a
  roster of hosts (``--hosts nodeA,nodeB:4`` or a ``hosts.toml``) via
  ``ssh host python -m repro.experiments.remote_worker``.
* ``slurm`` (:class:`SlurmBackend`) -- batches points into SLURM array
  jobs submitted through ``sbatch`` and polled via ``squeue``/``sacct``
  (pluggable :class:`BatchTransport`; results spool through a shared
  directory).
* ``k8s`` (:class:`KubernetesBackend`) -- batches points into
  indexed-completion Kubernetes Jobs driven through ``kubectl``
  (pluggable :class:`BatchTransport`; same spool-directory envelopes).
* ``inprocess`` (:class:`InProcessBackend`) -- synchronous test double
  with fake hosts and fault injection.

``slurm`` and ``k8s`` share the scheduler-agnostic
:class:`~repro.experiments.backends.batch.BatchBackend` substrate
(linger batching, poll-loop grace counters, requeue taxonomy, spool
hygiene); each contributes only its scheduler's dialect.

A :class:`PointTask` reaches its worker one way on all of them: the
backend hands the task -- checkpoint policy ref included -- to
:func:`repro.experiments.checkpoint.run_point`, directly (``local``,
``inprocess``) or as the one wire job
:func:`repro.experiments.remote_worker.encode_wire_job` builds (``ssh``,
``slurm``, ``k8s``).  No backend takes a checkpoint option of its own.

``create_backend`` is the CLI/runner factory.  The runner owns retry:
a :class:`WorkerLostError` puts the point back in the queue and the
backend stops assigning to the dead host, so a sweep survives losing
workers mid-flight.
"""

from __future__ import annotations

from typing import Optional, Union

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
from repro.experiments.backends.hosts import HostSpec, parse_hosts
from repro.experiments.backends.k8s import K8sCliTransport, KubernetesBackend
from repro.experiments.backends.local import InProcessBackend, LocalProcessBackend
from repro.experiments.backends.slurm import SlurmBackend, SlurmCliTransport
from repro.experiments.backends.ssh import SSHBackend

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "BACKEND_NAMES",
    "BatchBackend",
    "BatchTransport",
    "CliTransport",
    "HostSpec",
    "InProcessBackend",
    "K8sCliTransport",
    "KubernetesBackend",
    "LocalProcessBackend",
    "PointOutcome",
    "PointTask",
    "RemoteCodeMismatchError",
    "RemotePointError",
    "SlurmBackend",
    "SlurmCliTransport",
    "SSHBackend",
    "WorkerLostError",
    "create_backend",
    "parse_hosts",
]

#: names accepted by ``--backend`` / :func:`create_backend`
BACKEND_NAMES = ("local", "ssh", "slurm", "k8s", "inprocess")


def create_backend(
    spec: Union[str, Backend, None],
    jobs: int = 1,
    hosts: Optional[Union[str, list]] = None,
    **kwargs,
) -> Backend:
    """Resolve a backend name (or pass an instance through) to a Backend.

    ``hosts`` is required for ``ssh``: either a ``--hosts`` spec string
    (comma list / TOML path, see :func:`parse_hosts`) or a prepared list
    of :class:`HostSpec`.  Extra ``kwargs`` go to the backend
    constructor (e.g. ``ssh_command`` or ``point_timeout`` for SSH).
    """
    if isinstance(spec, Backend):
        return spec
    name = spec or "local"
    if name == "local":
        return LocalProcessBackend(jobs=jobs, **kwargs)
    if name == "inprocess":
        return InProcessBackend(**kwargs)
    if name == "ssh":
        if not hosts:
            raise ValueError("--backend ssh requires --hosts (comma list or hosts.toml)")
        roster = parse_hosts(hosts) if isinstance(hosts, str) else list(hosts)
        return SSHBackend(roster, **kwargs)
    if name == "slurm":
        return SlurmBackend(**kwargs)
    if name == "k8s":
        return KubernetesBackend(**kwargs)
    raise ValueError(
        f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
    )

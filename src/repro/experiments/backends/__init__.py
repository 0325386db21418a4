"""Execution backends for the sweep engine.

A grid point is location-independent -- its params dict (seed included)
fully determines the simulation -- so *where* points execute is a
policy behind the :class:`Backend` protocol:

* ``local`` (:class:`LocalProcessBackend`) -- the default; inline for
  ``jobs <= 1``, a :class:`~concurrent.futures.ProcessPoolExecutor`
  otherwise.
* ``inprocess`` (:class:`InProcessBackend`) -- synchronous test double
  with fake hosts and fault injection.

A :class:`PointTask` reaches its worker one way on both: the
experiment's point function is called on the task's params.

``create_backend`` is the runner's factory.  The runner owns retry:
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
    WorkerLostError,
)
from repro.experiments.backends.local import InProcessBackend, LocalProcessBackend

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "BACKEND_NAMES",
    "InProcessBackend",
    "LocalProcessBackend",
    "PointOutcome",
    "PointTask",
    "WorkerLostError",
    "backend_name",
    "create_backend",
]

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


def create_backend(spec: Union[str, Backend, None], jobs: int = 1, **kwargs) -> Backend:
    """Resolve a backend name (or pass an instance through) to a Backend.

    Extra ``kwargs`` go to the backend constructor (e.g. ``hosts`` or
    ``fault`` for ``inprocess``).
    """
    if isinstance(spec, Backend):
        return spec
    if backend_name(spec) == "local":
        return LocalProcessBackend(jobs=jobs, **kwargs)
    return InProcessBackend(**kwargs)

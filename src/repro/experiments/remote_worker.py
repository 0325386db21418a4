"""Stdin/stdout worker for the distributed backends: run one grid point, emit JSON.

This module *owns the wire format* shared by every distributed backend:
the SSH backend pipes a job over ``ssh <host> python -m
repro.experiments.remote_worker``; the SLURM and Kubernetes backends
write the same job to a spool file and a task runs the same command with
stdin/stdout redirected.  Every backend serialises a task with
:func:`encode_wire_job` and interprets the response with
:func:`decode_envelope`, so all of them ship the same job and apply the
same code-hash handshake and failure taxonomy.

A job is one JSON object::

    {"experiment": "fig8", "params": {...}, "code_hash": "<submitter's hash>"}

The response is exactly one JSON envelope.  Success::

    {"ok": true, "code_hash": "<this host's hash>",
     "elapsed": 1.23, "pickle": "<base64 pickled point value>"}

The value travels pickled (base64 inside the JSON envelope) so the
submitter receives *exactly* the object the point produced -- a plain
JSON body would silently turn tuples into lists and break byte-identical
caching.  Point failure::

    {"ok": false, "error": "...", "traceback": "..."}

with exit status 0: a deterministic point raising is a *point* error the
submitter must not retry.  Transport-level death (import failure, kill,
connection drop) surfaces as a non-zero exit / truncated stream, which
the SSH backend maps to a retryable worker loss.

The worker never touches the result cache -- caching is the submitter's
job, keyed by the submitter's code hash.  ``code_hash`` lets the backend
refuse results computed by out-of-sync sources (see
:class:`repro.experiments.backends.base.RemoteCodeMismatchError`).
Stray prints from experiment code are redirected to stderr so the
envelope stays parseable.
"""

from __future__ import annotations

import base64
import contextlib
import json
import pickle
import sys
import time
import traceback
from typing import Optional

from repro.experiments import registry
from repro.experiments.cache import code_version_hash

__all__ = ["decode_envelope", "encode_wire_job", "main", "make_wire_job", "run_job"]


def make_wire_job(task) -> dict:
    """The self-contained job object a worker consumes, handshake included.

    ``task`` is a :class:`~repro.experiments.backends.base.PointTask`.
    """
    return {
        "experiment": task.experiment,
        "params": task.params,
        "code_hash": code_version_hash(),
    }


def encode_wire_job(task) -> str:
    """``task`` as the JSON text SSH pipes and the batch spool stores."""
    return json.dumps(make_wire_job(task), sort_keys=True)


def decode_envelope(envelope: dict, host: str):
    """Interpret one response envelope; returns the point value.

    Applies the shared failure taxonomy: code skew raises
    :class:`~repro.experiments.backends.base.RemoteCodeMismatchError`
    (checked *before* ``ok`` -- a stale host's point error is really a
    sync problem), a reported point failure raises
    :class:`~repro.experiments.backends.base.RemotePointError` (not
    retryable), and an undecodable payload raises
    :class:`~repro.experiments.backends.base.WorkerLostError` (retryable
    transport damage).
    """
    from repro.experiments.backends.base import (
        RemoteCodeMismatchError,
        RemotePointError,
        WorkerLostError,
    )

    if "code_hash" in envelope:
        local, remote = code_version_hash(), str(envelope["code_hash"])
        if remote != local:
            raise RemoteCodeMismatchError(host, local, remote)
    if not envelope.get("ok"):
        raise RemotePointError(
            host,
            str(envelope.get("error", "unknown error")),
            str(envelope.get("traceback", "")),
        )
    if "code_hash" not in envelope:
        raise RemoteCodeMismatchError(host, code_version_hash(), "(missing)")
    try:
        return pickle.loads(base64.b64decode(envelope["pickle"]))
    except Exception as exc:  # noqa: BLE001 - any decode failure is transport-level
        raise WorkerLostError(host, f"undecodable result payload: {exc}") from None


def run_job(job: dict) -> dict:
    """Execute one job dict and return the response envelope (pure)."""
    try:
        # the redirect covers registry.get too: load_all() imports every
        # experiment module, and import-time prints must not corrupt the
        # stdout protocol stream any more than point-time prints
        with contextlib.redirect_stdout(sys.stderr):
            experiment = registry.get(str(job["experiment"]))
            params = registry.canonical_params(job["params"])
            start = time.perf_counter()
            value = experiment.point(params)
            elapsed = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - reported in the envelope
        return {
            "ok": False,
            # the hash lets the submitter distinguish "this point is broken"
            # from "this host runs stale sources where it never existed"
            "code_hash": code_version_hash(),
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    return {
        "ok": True,
        "code_hash": code_version_hash(),
        "elapsed": elapsed,
        "pickle": base64.b64encode(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii"),
    }


def main(argv: Optional[list] = None) -> int:
    try:
        job = json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        json.dump({"ok": False, "error": f"bad job JSON: {exc}", "traceback": ""}, sys.stdout)
        sys.stdout.write("\n")
        return 0
    json.dump(run_job(job), sys.stdout)
    sys.stdout.write("\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())

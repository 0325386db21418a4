"""Kubernetes batch backend: submit grid points as indexed-completion Jobs.

The second big scheduler family real federations run today.  Where the
SLURM backend speaks ``sbatch --array``, this backend batches the
sweep's cache-missing grid points into one Kubernetes **Job** with
``completionMode: Indexed``: pod *i* (``$JOB_COMPLETION_INDEX``) runs
``python -m repro.experiments.remote_worker`` with stdin/stdout
redirected to ``tasks/<i>.json`` / ``results/<i>.json`` in the job's
spool directory -- the exact wire format and write-then-rename result
envelopes every distributed backend shares.  The spool must be visible
to both the submitting machine and the pods; the default manifest
mounts it (plus ``cwd``, when set) as ``hostPath`` volumes at identical
paths, which fits single-node/dev clusters and CI -- production
clusters typically swap in a shared PVC (see ``docs/sweeps.md``).

All the scheduler-agnostic machinery (linger batching, the poll loop
with unknown/completed grace, the requeue and failure taxonomy, spool
hygiene) comes from :class:`~repro.experiments.backends.batch.
BatchBackend` (see its module docstring for the contract); this module
contributes the Kubernetes dialect: the Job manifest, the ``kubectl``
conversation, and the pod-phase vocabulary.

The default transport, :class:`K8sCliTransport`, shells out to
``kubectl create/get/delete``; ``$REPRO_KUBECTL_COMMAND`` prefixes every
invocation (mirroring ``$REPRO_SLURM_COMMAND``), which is how tests and
CI substitute ``tools/stub_k8s.py`` -- a synchronous mini-scheduler --
for a real cluster.

The manifest pins ``backoffLimit: 0`` / ``restartPolicy: Never`` because
retry is *the runner's* job: letting kubelet restart a pod would re-run
a point the runner may already have requeued elsewhere.
"""

from __future__ import annotations

import json
import os
import shlex
from pathlib import Path
from typing import Optional

from repro.experiments.backends.batch import BatchBackend, BatchTransport, CliTransport
from repro.experiments.cache import default_cache_dir

__all__ = [
    "K8sCliTransport",
    "KubernetesBackend",
    "default_k8s_spool_dir",
    "default_kubectl_command",
]

#: prefixes every kubectl command line (shlex-split), e.g. to substitute
#: tools/stub_k8s.py in tests/CI or to route through a wrapper script
_K8S_COMMAND_ENV = "REPRO_KUBECTL_COMMAND"

#: overrides the default spool location
_K8S_SPOOL_ENV = "REPRO_K8S_SPOOL"

#: the label every pod of an indexed Job carries; also set as an
#: annotation on older control planes, so the transport checks both
_INDEX_KEY = "batch.kubernetes.io/job-completion-index"

#: pod phases (or failure reasons) meaning "may still produce a result"
ACTIVE_PHASES = frozenset({"PENDING", "RUNNING"})

#: terminal pod phases/reasons meaning "died without a result": retryable.
#: ``FAILED`` is the bare phase; the rest are ``status.reason`` refinements
#: the transport surfaces when the control plane provides them.
LOST_PHASES = frozenset(
    {
        "FAILED",
        "EVICTED",
        "DEADLINEEXCEEDED",
        "OOMKILLED",
        "NODELOST",
        "SHUTDOWN",
    }
)


def default_kubectl_command() -> tuple:
    """The kubectl argv prefix: ``$REPRO_KUBECTL_COMMAND`` or ``kubectl``."""
    return tuple(shlex.split(os.environ.get(_K8S_COMMAND_ENV) or "kubectl"))


def default_k8s_spool_dir() -> Path:
    """``$REPRO_K8S_SPOOL`` or ``<cache dir>/k8s-spool`` (shared filesystem)."""
    return Path(os.environ.get(_K8S_SPOOL_ENV) or default_cache_dir() / "k8s-spool")


class K8sCliTransport(CliTransport):
    """The real thing: shell out to ``kubectl create``/``get``/``delete``.

    ``namespace`` adds ``-n <ns>`` and ``kubectl_options`` appends extra
    arguments (``--context=...``, ``--kubeconfig=...``) to every
    invocation.  ``spec`` in :meth:`submit` is the rendered Job manifest
    (JSON -- also valid input for real ``kubectl create -f``).
    """

    host = "k8s"
    verb = "kubectl create"

    def __init__(
        self,
        command_prefix: Optional[tuple] = None,
        namespace: Optional[str] = None,
        kubectl_options: tuple = (),
        timeout: float = 60.0,
    ) -> None:
        super().__init__(
            command_prefix if command_prefix is not None else default_kubectl_command(),
            timeout,
        )
        self.namespace = namespace
        self.kubectl_options = tuple(kubectl_options)

    def _argv(self, *args: str) -> list:
        argv = super()._argv(*args)
        if self.namespace:
            argv += ["-n", self.namespace]
        return argv + list(self.kubectl_options)

    def _submit_args(self, spec: Path) -> tuple:
        return ("create", "-f", str(spec), "-o", "name")

    def _parse_job_id(self, stdout: str) -> str:
        return stdout.rsplit("/", 1)[-1]  # -o name prints "job.batch/<name>"

    def _cancel_args(self, target: str) -> tuple:
        return ("delete", "job", target, "--ignore-not-found=true", "--wait=false")

    def _cancel_orphan(self, spec: Path) -> None:
        try:
            manifest = json.loads(Path(spec).read_text(encoding="utf-8"))
            name = manifest["metadata"]["name"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            return
        self.cancel(str(name))

    def poll(self, job_id: str) -> dict:
        out = self._run_quiet(
            "get", "pods", "-l", f"job-name={job_id}", "-o", "json"
        )
        if out is None:
            return {}
        try:
            pods = json.loads(out)
        except json.JSONDecodeError:
            return {}
        states: dict = {}
        for pod in pods.get("items", []):
            if not isinstance(pod, dict):
                continue
            meta = pod.get("metadata") or {}
            index = (meta.get("labels") or {}).get(_INDEX_KEY)
            if index is None:
                index = (meta.get("annotations") or {}).get(_INDEX_KEY)
            try:
                index = int(index)
            except (TypeError, ValueError):
                continue
            status = pod.get("status") or {}
            phase = str(status.get("phase") or "").upper()
            if phase == "FAILED":
                # surface the control plane's refinement (Evicted,
                # DeadlineExceeded, ...) when present; all map to "lost"
                reason = str(status.get("reason") or "").upper()
                phase = reason or phase
            if phase:
                states[index] = phase
        return states


class KubernetesBackend(BatchBackend):
    """Batch cache-missing grid points into indexed-completion k8s Jobs."""

    name = "k8s"
    task_noun = "completion index"
    index_var = "JOB_COMPLETION_INDEX"
    active_states = ACTIVE_PHASES
    lost_states = LOST_PHASES
    completed_states = frozenset({"SUCCEEDED"})

    def __init__(
        self,
        transport: Optional[BatchTransport] = None,
        spool: Optional[Path] = None,
        namespace: Optional[str] = None,
        image: str = "python:3.12-slim",
        kubectl_options: tuple = (),
        **substrate,
    ) -> None:
        """``substrate`` is :class:`BatchBackend`'s keywords, passed through."""
        super().__init__(
            transport
            if transport is not None
            else K8sCliTransport(namespace=namespace, kubectl_options=kubectl_options),
            spool if spool is not None else default_k8s_spool_dir(),
            **substrate,
        )
        self.namespace = namespace
        self.image = image

    # -- BatchBackend hooks ----------------------------------------------

    def _write_submission(self, job_dir: Path, n_tasks: int) -> Path:
        manifest = job_dir / "job.json"
        manifest.write_text(
            json.dumps(self._render_manifest(job_dir, n_tasks), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        return manifest

    # a timed-out point deletes the whole Job: Kubernetes has no per-index
    # cancel, and every index of one Job shares the same submission clock,
    # so its siblings are timing out in the same poll anyway
    # (the default _cancel_target already names the job)

    def _job_name(self, job_dir: Path) -> str:
        # DNS-1123: the spool components are already lowercase [a-z0-9-]
        # ("sweep-<pid>-<hex>", "job-<seq>"), so this stays a valid name
        return f"hc3i-{job_dir.parent.name}-{job_dir.name}"

    def _render_manifest(self, job_dir: Path, n_tasks: int) -> dict:
        name = self._job_name(job_dir)
        mounts = [str(self.spool)]
        if self.cwd and not Path(self.cwd).resolve().is_relative_to(
            self.spool.resolve()
        ):
            # a cwd under the spool is already mounted; anything else --
            # including a sibling sharing a string prefix -- needs its own
            mounts.append(str(self.cwd))
        volumes = [
            {"name": f"spool-{i}", "hostPath": {"path": path, "type": "Directory"}}
            for i, path in enumerate(mounts)
        ]
        volume_mounts = [
            {"name": f"spool-{i}", "mountPath": path} for i, path in enumerate(mounts)
        ]
        metadata: dict = {"name": name, "labels": {"app.kubernetes.io/name": "hc3i-repro"}}
        if self.namespace:
            metadata["namespace"] = self.namespace
        return {
            "apiVersion": "batch/v1",
            "kind": "Job",
            "metadata": metadata,
            "spec": {
                "completionMode": "Indexed",
                "completions": n_tasks,
                "parallelism": n_tasks,
                # retry is the runner's job (requeue taxonomy), never kubelet's
                "backoffLimit": 0,
                "template": {
                    "metadata": {"labels": {"app.kubernetes.io/name": "hc3i-repro"}},
                    "spec": {
                        "restartPolicy": "Never",
                        "containers": [
                            {
                                "name": "point",
                                "image": self.image,
                                "command": [
                                    "/bin/bash",
                                    "-c",
                                    self._worker_script(job_dir),
                                ],
                                "volumeMounts": volume_mounts,
                            }
                        ],
                        "volumes": volumes,
                    },
                },
            },
        }

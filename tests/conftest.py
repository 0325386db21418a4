"""Shared fixtures and helpers for the HC3I reproduction test suite."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cluster.federation import Federation
from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.timers import TimersConfig
from repro.experiments.backends import BatchTransport
from repro.network.message import NodeId
from repro.network.topology import ClusterSpec, LinkSpec, Topology
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLevel


FAST_INTRA = LinkSpec(latency=10e-6, bandwidth=80e6)
FAST_INTER = LinkSpec(latency=150e-6, bandwidth=100e6)


def small_topology(n_clusters: int = 2, nodes: int = 3) -> Topology:
    return Topology(
        clusters=[ClusterSpec(f"c{i}", nodes, FAST_INTRA) for i in range(n_clusters)],
        default_inter_link=FAST_INTER,
    )


def idle_application(n_clusters: int = 2, total_time: float = 1000.0) -> ApplicationConfig:
    """An application that (almost) never sends -- for protocol-only tests."""
    return ApplicationConfig(
        clusters=[
            ClusterAppSpec(mean_compute=1e12, send_probabilities=[])
            for _ in range(n_clusters)
        ],
        total_time=total_time,
    )


def chatty_application(
    n_clusters: int = 2,
    total_time: float = 1000.0,
    mean_compute: float = 30.0,
    p_inter: float = 0.2,
) -> ApplicationConfig:
    """A busy application with plenty of inter-cluster traffic."""
    specs = []
    for c in range(n_clusters):
        probs = [p_inter / (n_clusters - 1)] * n_clusters if n_clusters > 1 else [0.0]
        if n_clusters > 1:
            probs[c] = 1.0 - p_inter
        specs.append(
            ClusterAppSpec(mean_compute=mean_compute, send_probabilities=probs)
        )
    return ApplicationConfig(clusters=specs, total_time=total_time)


def default_timers(n_clusters: int = 2, clc_period=120.0, gc_period=None) -> TimersConfig:
    return TimersConfig(
        clc_periods=[clc_period] * n_clusters,
        gc_period=gc_period,
        failure_detection_delay=0.5,
        checkpoint_restore_time=0.2,
        node_repair_time=1.0,
        node_state_size=100_000,
    )


def make_federation(
    n_clusters: int = 2,
    nodes: int = 3,
    total_time: float = 1000.0,
    clc_period=120.0,
    gc_period=None,
    protocol: str = "hc3i",
    protocol_options=None,
    seed: int = 0,
    chatty: bool = False,
    trace: TraceLevel = TraceLevel.PROTOCOL,
    app_factory=None,
) -> Federation:
    application = (
        chatty_application(n_clusters, total_time)
        if chatty
        else idle_application(n_clusters, total_time)
    )
    return Federation(
        small_topology(n_clusters, nodes),
        application,
        default_timers(n_clusters, clc_period, gc_period),
        protocol=protocol,
        protocol_options=protocol_options,
        seed=seed,
        trace_level=trace,
        app_factory=app_factory,
    )


REPO_ROOT = Path(__file__).resolve().parents[1]


class Mailbox:
    """An application sink (``node.app_sink``) recording deliveries."""

    def __init__(self) -> None:
        self.messages: list = []

    def __call__(self, msg) -> None:
        self.messages.append(msg)

    def __len__(self) -> int:
        return len(self.messages)

    def ids(self) -> list:
        return [m.msg_id for m in self.messages]

    def senders(self) -> list:
        return [m.src for m in self.messages]


def entry_count(cache) -> int:
    """How many results a :class:`ResultCache` holds on disk."""
    return sum(1 for _ in cache.root.rglob("*.pkl"))


@pytest.fixture
def stub_ssh(tmp_path):
    """A stand-in for ``ssh``: ignores options/host, runs the command locally.

    Hosts named ``dead*`` refuse the connection (exit 255), so tests can
    kill a fake remote worker without an sshd anywhere.  Like a real ssh
    hop, it does not forward ``REPRO_CHECKPOINT_*`` variables: whatever
    the worker needs must arrive inside the wire job.
    """
    script = tmp_path / "stub-ssh.py"
    script.write_text(
        "#!/usr/bin/env python3\n"
        "import os, subprocess, sys\n"
        "host, command = sys.argv[-2], sys.argv[-1]\n"
        "if host.startswith('dead'):\n"
        "    print('stub-ssh: connection refused', file=sys.stderr)\n"
        "    sys.exit(255)\n"
        "env = {k: v for k, v in os.environ.items()\n"
        "       if not k.startswith('REPRO_CHECKPOINT_')}\n"
        "sys.exit(subprocess.call(command, shell=True, env=env))\n"
    )
    return (sys.executable, str(script))


def loopback_spec(name: str = "loopback", slots: int = 2):
    """A host that works through the stub transport: this repo, this python."""
    from repro.experiments.backends import HostSpec

    return HostSpec(
        name=name,
        slots=slots,
        python=sys.executable,
        cwd=str(REPO_ROOT),
        pythonpath="src",
    )


class InMemorySlurmTransport(BatchTransport):
    """A :class:`BatchTransport` that runs array tasks in-process.

    ``sbatch`` is simulated at submit time: each task's wire job is read
    from the spool, executed through the real ``remote_worker.run_job``,
    and its envelope written where the array task would have written it.
    ``fault(job_seq, index, job) -> state | None`` injects scheduler-level
    failures: returning a SLURM state string (e.g. ``"CANCELLED"``) kills
    that task -- terminal state recorded, no result file -- exactly what
    an operator's ``scancel`` mid-sweep looks like to the backend.
    """

    def __init__(self, fault=None) -> None:
        self.fault = fault
        self.seq = 0
        self.jobs: dict = {}
        self.job_dirs: dict = {}
        self.cancelled: list = []

    def submit(self, job_dir, script, n_tasks) -> str:
        from repro.experiments.remote_worker import run_job

        self.seq += 1
        job_id = str(self.seq)
        states = {}
        for i in range(n_tasks):
            job = json.loads((job_dir / "tasks" / f"{i}.json").read_text())
            verdict = self.fault(self.seq, i, job) if self.fault else None
            if verdict:
                states[i] = verdict
                continue
            envelope = run_job(job)
            (job_dir / "results" / f"{i}.json").write_text(json.dumps(envelope))
            states[i] = "COMPLETED"
        self.jobs[job_id] = states
        self.job_dirs[job_id] = job_dir
        return job_id

    def poll(self, job_id: str) -> dict:
        return dict(self.jobs.get(job_id, {}))

    def cancel(self, job_id: str) -> None:
        self.cancelled.append(job_id)


def make_slurm_backend(spool, transport=None, **kwargs):
    """A fast-polling :class:`SlurmBackend` over the in-memory transport."""
    from repro.experiments.backends import SlurmBackend

    kwargs.setdefault("linger", 0.01)
    kwargs.setdefault("poll_interval", 0.01)
    return SlurmBackend(
        transport=transport if transport is not None else InMemorySlurmTransport(),
        spool=Path(spool),
        **kwargs,
    )


class InMemoryK8sTransport(BatchTransport):
    """A :class:`BatchTransport` that runs completion indices in-process.

    ``kubectl create`` is simulated at submit time: each index's wire job
    is read from the spool, executed through the real
    ``remote_worker.run_job``, and its envelope written where the pod
    would have written it.  ``fault(job_seq, index, job) -> phase | None``
    injects control-plane failures: returning a pod phase string (e.g.
    ``"EVICTED"``) kills that pod -- terminal phase recorded, no result
    file -- exactly what a node-pressure eviction mid-sweep looks like to
    the backend.
    """

    def __init__(self, fault=None) -> None:
        self.fault = fault
        self.seq = 0
        self.jobs: dict = {}
        self.job_names: dict = {}
        self.job_dirs: dict = {}
        self.cancelled: list = []

    def submit(self, job_dir, spec, n_tasks) -> str:
        from repro.experiments.remote_worker import run_job

        self.seq += 1
        manifest = json.loads(Path(spec).read_text(encoding="utf-8"))
        name = manifest["metadata"]["name"]
        phases = {}
        for i in range(n_tasks):
            job = json.loads((job_dir / "tasks" / f"{i}.json").read_text())
            verdict = self.fault(self.seq, i, job) if self.fault else None
            if verdict:
                phases[i] = verdict
                continue
            envelope = run_job(job)
            (job_dir / "results" / f"{i}.json").write_text(json.dumps(envelope))
            phases[i] = "SUCCEEDED"
        self.jobs[name] = phases
        self.job_names[self.seq] = name
        self.job_dirs[name] = job_dir
        return name

    def poll(self, job_id: str) -> dict:
        return dict(self.jobs.get(job_id, {}))

    def cancel(self, target: str) -> None:
        self.cancelled.append(target)


def make_k8s_backend(spool, transport=None, **kwargs):
    """A fast-polling :class:`KubernetesBackend` over the in-memory transport."""
    from repro.experiments.backends import KubernetesBackend

    kwargs.setdefault("linger", 0.01)
    kwargs.setdefault("poll_interval", 0.01)
    return KubernetesBackend(
        transport=transport if transport is not None else InMemoryK8sTransport(),
        spool=Path(spool),
        **kwargs,
    )


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def fed() -> Federation:
    return make_federation()


def nid(cluster: int, node: int) -> NodeId:
    return NodeId(cluster, node)

"""Checkpoint/resume: snapshot fidelity, kill-and-resume equivalence, faults.

The contract under test (see docs/architecture.md): freezing a federation
between kernel slices and thawing it -- in the same process or on another
worker -- must reproduce the uninterrupted run's dispatch stream
bit-for-bit.  Chained trace digests make that checkable end to end: the
killed-and-resumed attempt's done-manifest digest must equal the
uninterrupted (checkpoint-activated) reference's.

Damaged snapshots are the other half of the contract: truncated, corrupt,
or stale (different code hash) envelopes must demote resume to a
from-zero rerun -- never crash the sweep, never change its results.
"""

from __future__ import annotations

import json
import os
import pickle
import sys

import pytest

from repro.app.workloads import table1_workload
from repro.cluster.federation import Federation
from repro.experiments import checkpoint, registry
from repro.experiments.checkpoint import (
    ENV_KILL,
    CheckpointConfig,
    SimulatedEviction,
)
from repro.experiments.backends import BatchTransport, PointTask
from repro.experiments.cache import ResultCache
from repro.experiments.golden import golden_overrides
from repro.experiments.remote_worker import make_wire_job
from repro.sim import snapshot
from repro.sim.process import Process
from repro.sim.snapshot import (
    CorruptSnapshotError,
    SnapshotError,
)
from repro.sim.trace import TraceLevel
from repro.sim.trace_digest import ChainedTraceDigest

TINY = {"nodes": 4, "total_time": 1800.0}


def make_fed(seed: int = 7, **kwargs) -> Federation:
    topology, application, timers = table1_workload(**TINY)
    return Federation(
        topology, application, timers, protocol="hc3i", seed=seed, **kwargs
    )


def tiny_point(name: str) -> dict:
    exp = registry.get(name)
    return exp.build_grid(golden_overrides(exp))[0]


def run_checkpointed(
    name: str,
    params: dict,
    directory,
    every: float = 120.0,
    wall=None,
    kill_at=None,
):
    """One ``run_point`` attempt under an explicit task checkpoint ref."""
    exp = registry.get(name)
    policy = {
        "every": every,
        "wall": wall,
        "dir": str(directory),
        "key": checkpoint.point_key(name, params),
    }
    if kill_at is not None:
        os.environ[ENV_KILL] = str(kill_at)
    try:
        return checkpoint.run_point(exp.point, params, name, policy)
    finally:
        os.environ.pop(ENV_KILL, None)


def read_manifest(directory, name: str, params: dict) -> dict:
    key = checkpoint.point_key(name, params)
    return json.loads((directory / f"{key}.done.json").read_text())


def call_digests(manifest: dict) -> list:
    return [(c["digest"], c["events"]) for c in manifest["calls"]]


# ---------------------------------------------------------------------------
# snapshot layer


class TestSnapshotRoundtrip:
    def test_midrun_snapshot_resumes_bit_identically(self):
        fed = make_fed()
        fed.sim.attach_digest(ChainedTraceDigest())
        fed.start()
        fed.sim.run(until=900.0)
        blob = snapshot.dumps(fed)
        fed.sim.run(until=1800.0)
        full = fed.sim._digest.summary()

        restored = snapshot.loads(blob)
        restored.sim.run(until=1800.0)
        assert restored.sim._digest.summary() == full

    def test_restored_run_sends_under_the_uninterrupted_runs_ids(self):
        """Ids ride the snapshot with the federation: neither what this
        process sent before nor what it sent after the dump moves them."""
        make_fed().run()
        fed = make_fed(trace_level=TraceLevel.MESSAGE)
        fed.start()
        fed.sim.run(until=900.0)
        blob = snapshot.dumps(fed)
        fed.sim.run(until=1800.0)

        restored = snapshot.loads(blob)
        assert restored.fabric.next_msg_id < fed.fabric.next_msg_id
        restored.sim.run(until=1800.0)
        assert restored.fabric.next_msg_id == fed.fabric.next_msg_id
        sends = [r["msg_id"] for r in fed.tracer.find("send")]
        assert sends and sends == [r["msg_id"] for r in restored.tracer.find("send")]

    def test_snapshot_is_stable_across_repeats(self):
        def blob() -> bytes:
            fed = make_fed()
            fed.start()
            fed.sim.run(until=900.0)
            return snapshot.dumps(fed)

        assert blob() == blob()

    def test_dumps_refuses_mid_run(self):
        fed = make_fed()
        fed.start()
        grabbed = []
        fed.sim.schedule(100.0, lambda: grabbed.append(snapshot.dumps(fed)))
        with pytest.raises(SnapshotError):
            fed.sim.run(until=200.0)
        assert not grabbed

    def test_raw_generator_process_is_rejected(self):
        fed = make_fed()
        fed.start()

        from repro.sim.process import Timeout

        def loiter():
            yield Timeout(1e17)

        Process(fed.sim, loiter(), name="no-spec")
        fed.sim.run(until=100.0)
        with pytest.raises(SnapshotError, match="GenSpec"):
            snapshot.dumps(fed)

    def test_process_unpickle_outside_snapshot_loads_is_refused(self):
        """A Process must only thaw through snapshot.loads (generator rebuild)."""
        fed = make_fed()
        fed.start()
        fed.sim.run(until=900.0)
        blob = snapshot.dumps(fed)
        with pytest.raises(Exception, match="snapshot"):
            pickle.loads(blob)  # raw pickle skips the generator-rebuild batch
        assert snapshot.loads(blob) is not None  # the supported path works

    def test_envelope_roundtrip_and_corruption(self, tmp_path):
        path = tmp_path / "x.ckpt"
        meta = {"state": "inflight", "call": 0}
        snapshot.write_envelope(path, meta, b"payload-bytes")
        header, payload = snapshot.read_envelope(path)
        assert payload == b"payload-bytes"
        assert header["state"] == "inflight"

        # truncation: lose the payload tail
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(CorruptSnapshotError):
            snapshot.read_envelope(path)

        # bit-flip inside the payload: sha mismatch
        broken = data[:-4] + bytes(reversed(data[-4:]))
        path.write_bytes(broken)
        with pytest.raises(CorruptSnapshotError):
            snapshot.read_envelope(path)

        # not an envelope at all
        path.write_bytes(b"\x80\x05 definitely not json")
        with pytest.raises(CorruptSnapshotError):
            snapshot.read_envelope(path)

    def test_write_envelope_leaves_no_tmp_behind(self, tmp_path):
        snapshot.write_envelope(tmp_path / "a.ckpt", {"state": "x"}, b"p")
        assert [p.name for p in tmp_path.glob("*.tmp")] == []


class _TornFile:
    """A file whose every write lands one byte, then the disk fills up."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(bytes(data)[:1])
        raise OSError("disk full")

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _export_empty_cache(root):
    from repro.experiments.cache_sync import export_cache

    export_cache(ResultCache(root / "empty", code_hash="h"), root / "site.tar.gz")


def _copy_entry(root):
    from repro.experiments.cache_sync import _atomic_copy_bytes

    _atomic_copy_bytes(b"entry bytes", root / "ab" / "entry.pkl")


#: the five atomic writers: (call, glob of the target it creates under root)
ATOMIC_WRITERS = {
    "ResultCache.put": (
        lambda root: ResultCache(root, code_hash="h").put("t", {"a": 1}, [1, 2, 3]),
        "*.pkl",
    ),
    "write_envelope": (
        lambda root: snapshot.write_envelope(root / "a.ckpt", {"state": "x"}, b"payload"),
        "*.ckpt",
    ),
    "write_done_manifest": (
        lambda root: checkpoint.write_done_manifest(
            CheckpointConfig(every=60.0, directory=root, key="k"), "table1"
        ),
        "*.done.json",
    ),
    "export_cache": (_export_empty_cache, "*.tar.gz"),
    "_atomic_copy_bytes": (_copy_entry, "*.pkl"),
}


@pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
def test_a_writer_that_raises_mid_write_leaves_nothing_behind(
    writer, tmp_path, monkeypatch
):
    """All five go through ``repro.atomic.atomic_write``: a write that
    raises part-way leaves no ``*.tmp`` and no partial target."""
    write, target = ATOMIC_WRITERS[writer]
    real_fdopen = os.fdopen
    with monkeypatch.context() as patch:
        patch.setattr(
            os, "fdopen", lambda fd, *a, **k: _TornFile(real_fdopen(fd, *a, **k))
        )
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path)
    assert list(tmp_path.rglob("*.tmp")) == []
    assert list(tmp_path.rglob(target)) == []
    write(tmp_path)  # and unbroken, the same call does create its target
    assert len(list(tmp_path.rglob(target))) == 1
    assert list(tmp_path.rglob("*.tmp")) == []


# ---------------------------------------------------------------------------
# kill-and-resume equivalence


# figure5 holds the federation across calls; protocol-tournament covers the
# new protocol families' requeue/restore paths in the fast lane
KILL_FAST = ["table1", "figure5", "protocol-tournament"]

# checkpoint_overhead's point slices and snapshots by hand (it measures the
# mechanism) and never routes through Federation.run, so the drive hook --
# and therefore the kill injection -- does not apply to it.
KILL_ALL = [n for n in registry.names() if n != "checkpoint_overhead"]


def _scrub(name: str, value):
    """Drop the wall-clock field `scaling` measures (host-dependent, see
    test_cross_backend.DETERMINISTIC_COLUMNS); everything else must match."""
    if name == "scaling" and isinstance(value, dict):
        return {k: v for k, v in value.items() if k != "wall"}
    return value


def assert_kill_resume_equivalent(name: str, tmp_path) -> None:
    params = tiny_point(name)
    ref_dir = tmp_path / "ref"
    run_dir = tmp_path / "run"
    ref_dir.mkdir()
    run_dir.mkdir()

    reference = run_checkpointed(name, params, ref_dir)
    ref_manifest = read_manifest(ref_dir, name, params)
    total_events = sum(c["events"] or 0 for c in ref_manifest["calls"])
    assert total_events > 4, f"{name}: too few events to kill mid-run"

    # The chained digest is interval-independent (see
    # TestEquivalence.test_interval_does_not_change_digest), so the killed
    # attempt may shrink `every` until a slice boundary lands before the
    # kill and an inflight envelope actually exists to resume from.
    every = 120.0
    while True:
        with pytest.raises(SimulatedEviction):
            run_checkpointed(
                name, params, run_dir, every=every, kill_at=total_events // 2
            )
        if list(run_dir.glob("*.ckpt")):
            break
        assert every > 0.01, f"{name}: no snapshot even at every={every}"
        every /= 8

    resumed = run_checkpointed(name, params, run_dir, every=every)
    assert _scrub(name, resumed) == _scrub(name, reference)
    run_manifest = read_manifest(run_dir, name, params)
    assert call_digests(run_manifest) == call_digests(ref_manifest)
    assert any(c["resumed_at"] is not None for c in run_manifest["calls"]), (
        f"{name}: the second attempt recomputed from zero instead of resuming"
    )


@pytest.mark.parametrize("name", KILL_FAST)
def test_kill_and_resume_matches_uninterrupted(name, tmp_path):
    assert_kill_resume_equivalent(name, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("name", [n for n in KILL_ALL if n not in KILL_FAST])
def test_kill_and_resume_matches_uninterrupted_all(name, tmp_path):
    assert_kill_resume_equivalent(name, tmp_path)


class TestEquivalence:
    def test_checkpointing_does_not_change_results(self, tmp_path):
        params = tiny_point("table1")
        exp = registry.get("table1")
        plain = exp.point(dict(params))
        checkpointed = run_checkpointed("table1", params, tmp_path)
        assert checkpointed == plain

    def test_interval_does_not_change_digest(self, tmp_path):
        params = tiny_point("table1")
        digests = []
        for i, every in enumerate((60.0, 450.0)):
            d = tmp_path / str(i)
            d.mkdir()
            run_checkpointed("table1", params, d, every=every)
            digests.append(call_digests(read_manifest(d, "table1", params)))
        assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# fault paths: damaged snapshots demote resume to a from-zero rerun


class TestDamagedSnapshots:
    def _kill_leaving_snapshot(self, name, params, directory):
        ref_manifest = None
        with pytest.raises(SimulatedEviction):
            run_checkpointed(name, params, directory, every=60.0, kill_at=40)
        snaps = sorted(directory.glob("*.c*.ckpt"))
        assert snaps, "the killed attempt wrote no inflight snapshot"
        return snaps

    def test_truncated_envelope_runs_from_zero(self, tmp_path, capsys):
        params = tiny_point("table1")
        ref = run_checkpointed("table1", params, tmp_path / "ref")
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (snap,) = self._kill_leaving_snapshot("table1", params, run_dir)
        snap.write_bytes(snap.read_bytes()[:50])

        resumed = run_checkpointed("table1", params, run_dir)
        assert resumed == ref
        assert not snap.exists(), "unusable snapshot must be deleted"
        assert "discarding unusable snapshot" in capsys.readouterr().err
        manifest = read_manifest(run_dir, "table1", params)
        assert all(c["resumed_at"] is None for c in manifest["calls"])
        assert call_digests(manifest) == call_digests(
            read_manifest(tmp_path / "ref", "table1", params)
        )

    def test_corrupt_payload_runs_from_zero(self, tmp_path, capsys):
        params = tiny_point("table1")
        ref = run_checkpointed("table1", params, tmp_path / "ref")
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (snap,) = self._kill_leaving_snapshot("table1", params, run_dir)
        data = bytearray(snap.read_bytes())
        data[-20] ^= 0xFF
        snap.write_bytes(bytes(data))

        resumed = run_checkpointed("table1", params, run_dir)
        assert resumed == ref
        assert "discarding unusable snapshot" in capsys.readouterr().err

    def test_stale_code_hash_rejected_like_cache_sync(self, tmp_path, capsys):
        params = tiny_point("table1")
        ref = run_checkpointed("table1", params, tmp_path / "ref")
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (snap,) = self._kill_leaving_snapshot("table1", params, run_dir)
        header, payload = snapshot.read_envelope(snap)
        header["code"] = "0" * len(header.get("code") or "40")
        snapshot.write_envelope(snap, header, payload)

        resumed = run_checkpointed("table1", params, run_dir)
        assert resumed == ref
        err = capsys.readouterr().err
        assert "discarding unusable snapshot" in err
        assert "different repro version" in err
        manifest = read_manifest(run_dir, "table1", params)
        assert all(c["resumed_at"] is None for c in manifest["calls"])


# ---------------------------------------------------------------------------
# policy plumbing


class TestPolicy:
    def test_wall_throttle_skips_interval_boundaries(self, tmp_path):
        cfg = CheckpointConfig(
            every=60.0, wall=3600.0, directory=tmp_path, key="k"
        )
        fed = make_fed()
        with checkpoint.activate(cfg):
            fed.run()
        # 1800s / 60s = dozens of boundaries; the hour-long wall throttle
        # admits only the first inflight write (plus the forced final one).
        records = cfg._call_records
        assert records and records[0]["events"] > 0
        inflight_writes = 1  # first boundary: nothing written yet
        assert (tmp_path / "k.c0.ckpt").exists()
        header, _ = snapshot.read_envelope(tmp_path / "k.c0.ckpt")
        assert header["state"] == "completed"
        assert inflight_writes == 1

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            CheckpointConfig(every=0)
        with pytest.raises(ValueError):
            CheckpointConfig(every=10.0, wall=-1)

    def test_point_key_is_order_insensitive_and_experiment_scoped(self):
        a = checkpoint.point_key("table1", {"x": 1, "y": 2})
        b = checkpoint.point_key("table1", {"y": 2, "x": 1})
        c = checkpoint.point_key("fig8", {"x": 1, "y": 2})
        assert a == b != c

    @pytest.mark.parametrize("name", registry.names())
    def test_snapshot_key_is_the_result_cache_key(self, name):
        """The resume docs' promise: a point's snapshots sit at its cache key."""
        params = tiny_point(name)
        assert checkpoint.point_key(name, params) == ResultCache().key(name, params)

    def test_run_point_ignores_the_environment(self, tmp_path, monkeypatch):
        """The task's ref is the only carrier: ambient variables are not policy."""
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "60")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        params = tiny_point("table1")
        checkpoint.run_point(registry.get("table1").point, params, "table1")
        assert list(tmp_path.iterdir()) == []

    def test_run_point_without_policy_is_a_plain_call(self):
        calls = []
        assert checkpoint.run_point(lambda p: calls.append(p) or 42, {"s": 1}) == 42
        assert calls == [{"s": 1}]


class TestSweepCliFlags:
    def test_wall_and_dir_require_every(self, tmp_path):
        from repro.cli import main

        base = ["sweep", "table1", "--scale", "tiny", "--no-cache"]
        with pytest.raises(SystemExit, match="require --checkpoint-every"):
            main([*base, "--checkpoint-wall", "5"])
        with pytest.raises(SystemExit, match="require --checkpoint-every"):
            main([*base, "--checkpoint-dir", str(tmp_path)])

    def test_local_sweep_policy_rides_the_task_not_environ(self, tmp_path, capsys):
        from repro.cli import main

        ckpt_dir = tmp_path / "snaps"
        environ_before = dict(os.environ)
        rc = main(
            [
                "sweep", "table1", "--scale", "tiny", "--no-cache",
                "--checkpoint-every", "60",
                "--checkpoint-dir", str(ckpt_dir),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        manifests = list(ckpt_dir.glob("*.done.json"))
        assert len(manifests) == 1, "the sweep's point left no done manifest"
        assert not list(ckpt_dir.glob("*.ckpt")), "snapshots must be GC'd"
        assert dict(os.environ) == environ_before, "the sweep touched os.environ"

    def test_ssh_sweep_checkpoints_on_the_remote_side(
        self, tmp_path, capsys, monkeypatch, stub_ssh
    ):
        """The policy crosses ssh inside the wire job: the stub transport
        scrubs every REPRO_CHECKPOINT_* variable from the worker's
        environment, as a real ssh hop does."""
        from conftest import REPO_ROOT
        from repro.cli import main

        roster = tmp_path / "hosts.toml"
        roster.write_text(
            "[[hosts]]\n"
            'name = "loopback"\n'
            f'python = "{sys.executable}"\n'
            f'cwd = "{REPO_ROOT}"\n'
            'pythonpath = "src"\n'
        )
        monkeypatch.setenv("REPRO_SSH_COMMAND", " ".join(stub_ssh))
        ckpt_dir = tmp_path / "snaps"
        rc = main(
            [
                "sweep", "table1", "--scale", "tiny", "--no-cache",
                "--backend", "ssh", "--hosts", str(roster),
                "--checkpoint-every", "60",
                "--checkpoint-dir", str(ckpt_dir),
            ]
        )
        assert rc == 0
        assert "backend=ssh" in capsys.readouterr().out
        (manifest,) = ckpt_dir.glob("*.done.json")
        assert json.loads(manifest.read_text())["experiment"] == "table1"
        assert not list(ckpt_dir.glob("*.ckpt")), "snapshots must be GC'd"


class TestWireFormat:
    def test_wire_job_without_checkpoint_is_byte_identical_to_old_format(self):
        job = make_wire_job(PointTask("table1", {"seed": 1}, fn=dict))
        assert "checkpoint" not in job
        assert sorted(job) == ["code_hash", "experiment", "params"]

    def test_wire_job_carries_checkpoint_policy(self):
        policy = {"every": 60.0, "wall": None, "dir": "/spool/snaps", "key": "k"}
        job = make_wire_job(PointTask("table1", {"seed": 1}, fn=dict, checkpoint=policy))
        assert job["checkpoint"] == policy


# ---------------------------------------------------------------------------
# the batch requeue path: eviction mid-run, requeued point resumes


class MidRunEvictingTransport(BatchTransport):
    """An in-memory k8s control plane whose pods can die *mid-simulation*.

    ``kills`` maps ``(job_seq, index) -> event_budget``: the matching pod
    runs the real worker with ``$REPRO_CHECKPOINT_KILL_EVENT`` set, so it
    writes inflight snapshots and then genuinely dies partway through --
    terminal phase recorded, no result file.  The requeued copy (a later
    job) runs clean and resumes from the dead pod's latest envelope.
    """

    def __init__(self, kills: dict) -> None:
        self.kills = dict(kills)
        self.seq = 0
        self.jobs: dict = {}
        self.job_dirs: dict = {}
        self.cancelled: list = []
        self.shipped: list = []  # every wire job, in submission order

    def submit(self, job_dir, spec, n_tasks) -> str:
        from repro.experiments.remote_worker import run_job

        self.seq += 1
        name = f"job-{self.seq}"
        phases = {}
        for i in range(n_tasks):
            job = json.loads((job_dir / "tasks" / f"{i}.json").read_text())
            self.shipped.append(job)
            budget = self.kills.get((self.seq, i))
            if budget is not None:
                os.environ[ENV_KILL] = str(budget)
            try:
                envelope = run_job(job)
            except SimulatedEviction:
                phases[i] = "FAILED"
                continue
            finally:
                os.environ.pop(ENV_KILL, None)
            (job_dir / "results" / f"{i}.json").write_text(json.dumps(envelope))
            phases[i] = "SUCCEEDED"
        self.jobs[name] = phases
        self.job_dirs[name] = job_dir
        return name

    def poll(self, job_id: str) -> dict:
        return dict(self.jobs.get(job_id, {}))

    def cancel(self, target: str) -> None:
        self.cancelled.append(target)


class TestBatchRequeueResume:
    def test_evicted_point_resumes_on_the_requeued_job(self, tmp_path):
        from conftest import make_k8s_backend
        from repro.experiments.runner import run_experiment

        overrides = {**TINY, "seed": 7}
        serial = run_experiment("table1", overrides=overrides, jobs=1)

        # Kill every first-job pod after 40 events; requeues run clean.
        kills = {(1, i): 40 for i in range(len(serial.grid))}
        spool = tmp_path / "spool"
        snap_dir = spool / "snapshots"
        backend = make_k8s_backend(spool, MidRunEvictingTransport(kills))
        try:
            report = run_experiment(
                "table1",
                overrides=overrides,
                backend=backend,
                checkpoint={"every": 60.0, "dir": snap_dir},
            )
        finally:
            backend.shutdown()

        assert report.retries == len(serial.grid)
        assert report.result.render() == serial.result.render()

        # Every requeued point genuinely resumed -- its done manifest says
        # where the transplant picked up -- and its snapshots were GC'd.
        manifests = sorted(snap_dir.glob("*.done.json"))
        assert len(manifests) == len(serial.grid)
        for path in manifests:
            doc = json.loads(path.read_text())
            assert any(c["resumed_at"] is not None for c in doc["calls"]), (
                f"{path.name}: requeued point recomputed from zero"
            )
        assert not list(snap_dir.glob("*.ckpt"))

    def test_task_ref_is_stable_across_requeues(self, tmp_path):
        """The requeue resumes because the ref is attempt-independent: the
        evicted attempt and its requeue ship the same key and dir."""
        from conftest import make_k8s_backend
        from repro.experiments.runner import run_experiment

        transport = MidRunEvictingTransport({(1, 0): 40})
        backend = make_k8s_backend(tmp_path / "spool", transport)
        policy = {"every": 60.0, "wall": None, "dir": str(tmp_path / "snaps")}
        try:
            report = run_experiment(
                "table1", overrides={**TINY, "seed": 7}, backend=backend,
                checkpoint=policy,
            )
        finally:
            backend.shutdown()
        assert report.retries == 1
        first, second = (job["checkpoint"] for job in transport.shipped)
        assert first == second
        assert first == {
            **policy, "key": checkpoint.point_key("table1", report.grid[0])
        }


# ---------------------------------------------------------------------------
# spool hygiene


class TestSpoolHygiene:
    def test_completed_point_gcs_snapshots_but_keeps_manifest(self, tmp_path):
        params = tiny_point("table1")
        run_checkpointed("table1", params, tmp_path, every=60.0)
        key = checkpoint.point_key("table1", params)
        assert not list(tmp_path.glob(f"{key}.c*.ckpt"))
        assert (tmp_path / f"{key}.done.json").exists()

    def test_gc_point_only_touches_its_key(self, tmp_path):
        for name in ("k1.c0.ckpt", "k1.c1.ckpt", "k2.c0.ckpt", "k1.done.json"):
            (tmp_path / name).write_bytes(b"x")
        assert checkpoint.gc_point(tmp_path, "k1") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "k1.done.json",
            "k2.c0.ckpt",
        ]

    def test_sweep_orphans_removes_only_tmp_files(self, tmp_path):
        (tmp_path / "a.tmp").write_bytes(b"x")
        (tmp_path / "b.tmp").write_bytes(b"x")
        (tmp_path / "keep.ckpt").write_bytes(b"x")
        assert checkpoint.sweep_orphans(tmp_path) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["keep.ckpt"]
        assert checkpoint.sweep_orphans(tmp_path / "missing") == 0

    def test_runner_gc_for_cleans_a_dead_workers_leftovers(self, tmp_path):
        """A pod that died between writing its result and its own GC leaves
        a snapshot behind; the runner collects it once the result is
        recorded -- on a batch backend too, where the submitting process
        holds no ambient policy at all."""
        from conftest import InMemoryK8sTransport, make_k8s_backend
        from repro.experiments.runner import run_experiment

        class DiesBeforeItsOwnGC(InMemoryK8sTransport):
            def submit(self, job_dir, spec, n_tasks) -> str:
                name = super().submit(job_dir, spec, n_tasks)
                for task in (job_dir / "tasks").glob("*.json"):
                    ref = json.loads(task.read_text())["checkpoint"]
                    (tmp_path / "snaps" / f"{ref['key']}.c0.ckpt").write_bytes(b"x")
                return name

        snap_dir = tmp_path / "snaps"
        backend = make_k8s_backend(tmp_path / "spool", DiesBeforeItsOwnGC())
        try:
            report = run_experiment(
                "table1", overrides={**TINY, "seed": 7}, backend=backend,
                checkpoint={"every": 60.0, "dir": snap_dir},
            )
        finally:
            backend.shutdown()
        key = checkpoint.point_key("table1", report.grid[0])
        assert not list(snap_dir.glob("*.ckpt"))
        assert (snap_dir / f"{key}.done.json").exists()

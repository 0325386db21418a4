"""Snapshot forks: ``snapshot.dumps/loads`` mid-run changes nothing.

The contract under test (see docs/architecture.md, "Snapshots"): freezing
a federation mid-run and thawing it must reproduce the uninterrupted run
bit for bit -- same point values, same dispatch stream.  The fork check
runs every registered experiment with ``Federation.run`` patched to fork
each call half-way, and compares against the plain run; a tiny federation
of each protocol family is also forked after every one of its events, with
the consistency oracle attached, and each fork's verdict must equal the
uninterrupted run's.

Process bodies are plain objects, so a fork is one unpickle.  The bodies
no registered experiment reaches -- the exchange workload's requester, idle
and responder, and the MTBF injector waiting for a recovery -- are forked
after every event too.

The snapshot layer's own refusals (a dump mid-``run()``, a process driven
by a raw generator) are pinned here too, and so are the sweep-side
checkpoint knobs that no longer exist.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle

import pytest

from repro.analysis.oracle import ConsistencyOracle, attach_oracle
from repro.app.process import Idle, Requester, exchange_factory
from repro.app.workloads import table1_workload
from repro.cluster.federation import Federation
from repro.core.protocol import protocol_names
from repro.core.rounds import TwoPhaseRound
from repro.experiments import registry
from repro.experiments.golden import golden_overrides
from repro.sim import snapshot, trace_digest
from repro.sim.process import Process, Signal, Timeout
from repro.sim.snapshot import SnapshotError
from repro.sim.trace import TraceLevel
from tests.conftest import make_federation

TINY = {"nodes": 4, "total_time": 1800.0}


def make_fed(seed: int = 7, protocol: str = "hc3i", **kwargs) -> Federation:
    topology, application, timers = table1_workload(**TINY)
    return Federation(
        topology, application, timers, protocol=protocol, seed=seed, **kwargs
    )


# ---------------------------------------------------------------------------
# the fork check, over the registry


def forking_run(forks: list):
    """A ``Federation.run`` that forks itself half-way through each call.

    Runs to the middle of what is left, round-trips the federation through
    ``dumps``/``loads``, moves the restored state into the caller's object
    (experiments hold it across calls), re-attaches the streaming digest
    (it never rides a snapshot) and runs to the end.
    """

    def run(self, until=None):
        self.start()
        horizon = until if until is not None else self.application.total_time
        self.sim.run(until=(self.sim.now + horizon) / 2)
        digest = self.sim._digest
        restored = snapshot.loads(snapshot.dumps(self))
        self.__dict__.update(restored.__dict__)
        self.sim.attach_digest(digest)
        self.sim.run(until=horizon)
        forks.append(self.sim.now)
        return self.results()

    return run


def run_grid(name: str) -> tuple:
    """Every tiny grid point's value, and the digest of their dispatch streams."""
    experiment = registry.get(name)
    grid = experiment.build_grid(golden_overrides(experiment))
    with trace_digest.capture() as digest:
        values = [experiment.point(params) for params in grid]
    return values, digest.summary()


def assert_fork_changes_nothing(name: str, monkeypatch) -> None:
    plain = run_grid(name)
    forks: list = []
    monkeypatch.setattr(Federation, "run", forking_run(forks))
    forked = run_grid(name)
    assert forks, f"{name}: no Federation.run call was forked"
    assert forked[1] == plain[1], f"{name}: the fork changed the dispatch stream"
    assert forked[0] == plain[0], f"{name}: the fork changed a point's value"


# figure5 holds the federation across run() calls; protocol-tournament
# covers every protocol family's restore path in the fast lane
FORK_FAST = ["table1", "figure5", "protocol-tournament"]


@pytest.mark.parametrize("name", FORK_FAST)
def test_fork_matches_uninterrupted(name, monkeypatch):
    assert_fork_changes_nothing(name, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("name", [n for n in registry.names() if n not in FORK_FAST])
def test_fork_matches_uninterrupted_all(name, monkeypatch):
    assert_fork_changes_nothing(name, monkeypatch)


# ---------------------------------------------------------------------------
# the fork check, at every dispatched event
#
# A half-horizon fork lands wherever the middle happens to fall; a hazard
# that only bites when the snapshot is taken inside a 2PC round passes it.
# The coordinators once shipped one: they compared their phase to string
# sentinels with ``is``, and a restored phase string is equal to, but not
# the same object as, the class constant.  A snapshot must be consistent
# wherever it is taken, so this forks a tiny federation after each event
# of its run, for every protocol family.


def traced_run(build, steps=None):
    """``build()``'s federation run to the horizon under a fresh digest and
    the consistency oracle; with ``steps``, forked through ``dumps``/``loads``
    after that many events.  The oracle reads the run's own trace, so it
    rides the snapshot and the fork's verdict covers the whole run."""
    fed = build()
    attach_oracle(fed)
    digest = trace_digest.TraceDigest()
    fed.sim.attach_digest(digest)
    fed.start()
    if steps is not None:
        for _ in range(steps):
            assert fed.sim.step()
        fed = snapshot.loads(snapshot.dumps(fed))
        fed.sim.attach_digest(digest)
    fed.sim.run(until=fed.application.total_time)
    return digest.summary(), fed.results(), ConsistencyOracle(fed).check()


def divergent_forks(build) -> list:
    """The event counts at which a fork changes the run's digest, results or
    consistency verdict (ok, counts and violations)."""
    plain = traced_run(build)
    assert plain[2].ok, plain[2]
    return [k for k in range(plain[0]["events"]) if traced_run(build, k) != plain]


@pytest.mark.parametrize("protocol", protocol_names())
def test_fork_at_every_event_matches_uninterrupted(protocol):
    assert divergent_forks(functools.partial(make_fed, protocol=protocol)) == []


def exchange_fed() -> Federation:
    """Requesters in cluster 0; idle bodies and responders in cluster 1."""
    return make_federation(
        nodes=2, total_time=200.0, app_factory=exchange_factory(mean_compute=30.0), seed=5
    )


def test_exchange_bodies_fork_at_every_event():
    fed = exchange_fed()
    results = fed.run()
    bodies = [type(node.app_process._gen) for c in fed.clusters for node in c.nodes]
    assert bodies == [Requester, Requester, Idle, Idle]
    assert results.messages[(0, 1)] > 0 and results.messages[(1, 0)] > 0  # replies
    assert divergent_forks(exchange_fed) == []


def faulty_fed(seed: int = 7) -> Federation:
    """A tiny table1 run whose MTBF injects several failures."""
    topology, application, timers = table1_workload(**TINY)
    topology = dataclasses.replace(topology, mtbf=600.0)
    return Federation(topology, application, timers, protocol="hc3i", seed=seed)


def test_failure_injector_forks_at_every_event():
    assert divergent_forks(faulty_fed) == []
    assert traced_run(faulty_fed)[2].erasures >= 2  # on both sides of a fork
    fed = faulty_fed()
    fed.start()
    awaiting_recovery = 0
    while fed.sim.now < fed.application.total_time and fed.sim.step():
        awaiting_recovery += isinstance(fed.injector._process._waiting_on, Signal)
    assert fed.injector.injected >= 2
    assert awaiting_recovery  # some fork was taken while it waited on one


def test_failure_injector_forks_at_every_event_across_erased_sends():
    """Seed 11's rollbacks also erase the sends of two inter-cluster
    messages: the fork's verdict must account for them as the run's does."""
    build = functools.partial(faulty_fed, 11)
    assert divergent_forks(build) == []
    verdict = traced_run(build)[2]
    assert (verdict.messages, verdict.delivered) == (2, 0) and verdict.erasures >= 2


def test_every_event_fork_catches_an_identity_compared_phase(monkeypatch):
    """Non-vacuity: the ``is``-sentinel bug, rebuilt on the live
    ``TwoPhaseRound``.  An uninterrupted run cannot see it; some fork must."""
    build = functools.partial(make_fed, protocol="hc3i")
    plain = traced_run(build)
    on_ack = TwoPhaseRound.on_ack

    def identity_on_ack(self, msg):
        if self.phase is not self.COLLECTING:
            return
        on_ack(self, msg)

    monkeypatch.setattr(
        TwoPhaseRound, "collecting", property(lambda self: self.phase is self.COLLECTING)
    )
    monkeypatch.setattr(TwoPhaseRound, "on_ack", identity_on_ack)
    assert traced_run(build) == plain
    assert divergent_forks(build)


# ---------------------------------------------------------------------------
# the snapshot layer


class TestSnapshotRoundtrip:
    def test_midrun_snapshot_resumes_bit_identically(self):
        """The restored federation dispatches the rest of the run exactly as
        the original does after the dump, and ends with the same results."""
        fed = make_fed()
        fed.start()
        fed.sim.run(until=900.0)
        blob = snapshot.dumps(fed)
        tail = trace_digest.TraceDigest()
        fed.sim.attach_digest(tail)
        fed.sim.run(until=1800.0)

        restored = snapshot.loads(blob)
        restored_tail = trace_digest.TraceDigest()
        restored.sim.attach_digest(restored_tail)
        restored.sim.run(until=1800.0)
        assert tail.events > 0
        assert restored_tail.summary() == tail.summary()
        assert restored.results() == fed.results()

    def test_a_plain_unpickle_restores(self):
        """Bodies are plain objects, so ``pickle.loads`` alone thaws a
        snapshot: there is no loader pass to skip."""
        fed = make_fed()
        fed.start()
        fed.sim.run(until=900.0)
        blob = snapshot.dumps(fed)
        fed.sim.run(until=1800.0)
        restored = pickle.loads(blob)["root"]
        restored.sim.run(until=1800.0)
        assert restored.results() == fed.results()

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

        def loiter():
            yield Timeout(1e17)

        Process(fed.sim, loiter(), name="no-spec")
        fed.sim.run(until=100.0)
        with pytest.raises(SnapshotError, match="generator"):
            snapshot.dumps(fed)


# ---------------------------------------------------------------------------
# the sweep-side checkpoint policy is gone: naming it fails, by name


class TestRetiredCheckpointKnobsRefused:
    @pytest.mark.parametrize(
        "flag", ["--checkpoint-every", "--checkpoint-wall", "--checkpoint-dir"]
    )
    def test_sweep_flag(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "table1", flag, "60"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_run_experiment_keyword(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(TypeError, match="checkpoint"):
            run_experiment("table1", overrides=TINY, checkpoint={})

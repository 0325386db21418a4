"""Distributed GC under failures, and the CLI experiment registry."""

import pytest

from repro.network.message import NodeId
from tests.conftest import make_federation


class TestDistributedGcUnderFailure:
    def test_token_survives_leader_failure(self):
        """A GC token addressed to a crashed leader is buffered and the
        round resumes after recovery."""
        fed = make_federation(
            n_clusters=3,
            nodes=2,
            clc_period=60.0,
            gc_period=None,
            total_time=1500.0,
            chatty=True,
            protocol_options={"gc_mode": "distributed"},
            seed=21,
        )
        fed.start()
        fed.sim.run(until=400.0)
        # crash cluster 1's leader, then immediately start a round: the
        # token c0 -> c1 lands in the dead leader's buffer
        fed.inject_failure(NodeId(1, 0))
        gc = fed.protocol.garbage_collector
        gc.collect_now()
        fed.sim.run(until=420.0)
        # recovery flushed the buffer; the token continued around the ring
        assert gc.rounds_completed >= 1 or gc._round_active
        fed.run()
        assert gc.rounds_completed >= 1

    def test_round_guard_releases(self):
        """After a completed round another one can start."""
        fed = make_federation(
            nodes=2, clc_period=60.0, gc_period=None, total_time=1000.0,
            chatty=True, protocol_options={"gc_mode": "distributed"},
        )
        fed.start()
        fed.sim.run(until=300.0)
        gc = fed.protocol.garbage_collector
        gc.collect_now()
        fed.sim.run(until=400.0)
        assert gc.rounds_completed == 1
        gc.collect_now()
        fed.sim.run(until=500.0)
        assert gc.rounds_completed == 2

    def test_centralized_gc_with_failed_member_leader(self):
        """The centralized round stalls on a dead member leader and
        resumes when it recovers -- no prune from stale data."""
        fed = make_federation(
            nodes=2, clc_period=60.0, gc_period=None, total_time=1200.0,
            chatty=True, seed=31,
        )
        fed.start()
        fed.sim.run(until=400.0)
        fed.inject_failure(NodeId(1, 0))
        gc = fed.protocol.garbage_collector
        gc.collect_now()
        fed.run()
        # the round either completed after recovery or was skipped by the
        # epoch guard; in both cases invariants hold
        from repro.analysis.oracle import check_invariants

        assert check_invariants(fed) == []


class TestCliExperiments:
    def test_registry_names(self):
        from repro.experiments import registry

        names = registry.names()
        for name in ("table1", "fig6-fig7", "fig8", "fig9", "table2",
                     "table3", "no-gc", "baselines", "mtbf", "scaling",
                     "overhead", "robustness"):
            assert name in names

    def test_fixed_experiment_runs(self, capsys):
        from repro.cli import main

        rc = main(["sweep", "ablation-replication", "--no-cache"])
        assert rc == 0
        assert "replication" in capsys.readouterr().out

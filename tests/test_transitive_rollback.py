"""Rollback and recovery under transitive (whole-DDV) dependency tracking.

The §7 extension changes how dependencies are *learned* but not the
rollback rules; these tests pin the interaction: transitively learned
entries trigger rollbacks exactly like directly learned ones.
"""

from repro.analysis.oracle import assert_consistent, attach_oracle, check_invariants
from repro.app.process import scripted_sender_factory
from repro.core.recovery_line import cascade_targets
from repro.network.message import NodeId
from tests.conftest import make_federation


def chain_fed(**kw):
    """c0 -> c1 at t=10 (forces), then c1 -> c2 at t=40 (forces, carries
    c0's entry transitively)."""
    return make_federation(
        n_clusters=3,
        nodes=2,
        clc_period=None,
        total_time=400.0,
        protocol_options={"mode": "ddv"},
        app_factory=scripted_sender_factory({
            NodeId(0, 0): [(10.0, NodeId(1, 0), 100)],
            NodeId(1, 0): [(40.0, NodeId(2, 0), 100)],
        }),
        **kw,
    )


class TestTransitiveDependencies:
    def test_indirect_entry_recorded(self):
        fed = chain_fed()
        fed.start()
        fed.sim.run(until=100.0)
        cs2 = fed.protocol.cluster_states[2]
        # c2 learned c0's SN through c1's piggybacked DDV
        assert cs2.ddv[0] == 1
        assert cs2.ddv[1] == 2

    def test_failure_of_transitive_source_rolls_receiver(self):
        """c0 fails; c2 never heard from c0 directly but depends on it
        through c1 -- and must roll back."""
        fed = chain_fed()
        oracle = attach_oracle(fed)
        fed.start()
        fed.sim.run(until=100.0)
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=400.0)
        # c0 rolled to its initial CLC (sn 1): alert(0, 1)
        # c1: ddv[0]=1 >= 1 -> rolls to its forced CLC (sn 2)
        # c2: ddv[0]=1 >= 1 -> rolls to its forced CLC (sn 2), which is
        #     exactly where the transitive entry was stamped
        assert fed.tracer.first("rollback", cluster=1) is not None
        assert fed.tracer.first("rollback", cluster=2) is not None
        report = assert_consistent(fed, oracle)
        assert report.messages == 2 and report.erasures == 3

    def test_live_cascade_matches_pure_model_in_ddv_mode(self):
        fed = chain_fed()
        fed.start()
        fed.sim.run(until=100.0)
        states = fed.protocol.cluster_states
        stored = [cs.store.ddv_list() for cs in states]
        current = [cs.ddv_tuple() for cs in states]
        predicted = cascade_targets(stored, current, failed=0)
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=400.0)
        for c, target in enumerate(predicted):
            rec = fed.tracer.first("rollback", cluster=c)
            if target is None:
                assert rec is None
            else:
                assert rec is not None and rec["to_sn"] == target

    def test_ghost_check_uses_source_entry(self):
        """A replayed/late message in DDV mode is judged by the sender's
        own entry, not by the transitively carried ones."""
        fed = chain_fed()
        fed.start()
        fed.sim.run(until=100.0)
        cs2 = fed.protocol.cluster_states[2]
        # record a cut for c1 (as if c1 rolled back to sn 1)
        cs2.record_alert(faulty=1, alert_sn=1, new_epoch=1)
        from repro.core.hc3i import Piggyback

        ghost = Piggyback(sn=2, epoch=0, ddv=(1, 2, 0))
        fine = Piggyback(sn=0, epoch=0, ddv=(1, 0, 0))
        assert cs2.is_ghost(1, ghost)
        assert not cs2.is_ghost(1, fine)

    def test_transitive_consistency_with_failures(self):
        """Stochastic run in DDV mode with a failure stays consistent."""
        fed = make_federation(
            n_clusters=3, nodes=2, clc_period=80.0, total_time=1200.0,
            chatty=True, seed=77, protocol_options={"mode": "ddv"},
        )
        oracle = attach_oracle(fed)
        fed.start()
        fed.sim.run(until=600.0)
        fed.inject_failure(NodeId(1, 1))
        fed.run()
        report = assert_consistent(fed, oracle)
        assert report.messages > 0 and report.erasures >= 1


class TestGcRollbackRaces:
    def test_stale_gc_response_ignored(self):
        """A GC response from a previous round id must not corrupt the
        current round."""
        fed = make_federation(
            nodes=2, clc_period=60.0, gc_period=None, total_time=600.0,
            chatty=True,
        )
        fed.start()
        fed.sim.run(until=300.0)
        gc = fed.protocol.garbage_collector
        gc.collect_now()
        # forge a stale response (round id from the past)
        from repro.network.message import Message, MessageKind

        stale = Message(
            src=NodeId(1, 0), dst=NodeId(0, 0), kind=MessageKind.GC_RESPONSE,
            size=10,
            payload={"round": -99, "data": {"cluster": 1, "epoch": 0,
                                            "current_ddv": (0, 0), "ddvs": []}},
        )
        gc.on_message(fed.node(NodeId(0, 0)), stale)
        fed.sim.run(until=400.0)
        # the real round still completed correctly
        assert gc.rounds_completed == 1

    def test_gc_during_recovery_deferred(self):
        """The collector does not start a round while its own cluster is
        recovering."""
        fed = make_federation(
            nodes=2, clc_period=60.0, gc_period=None, total_time=800.0,
            chatty=True,
        )
        fed.start()
        fed.sim.run(until=300.0)
        fed.inject_failure(NodeId(0, 0))
        fed.sim.run(until=300.6)  # detection done, recovery in progress
        assert fed.protocol.cluster_states[0].recovering
        gc = fed.protocol.garbage_collector
        gc.collect_now()
        assert gc.rounds_started == 0  # refused while recovering
        fed.run()
        gc.collect_now()  # after recovery it works
        fed.sim.run(until=fed.sim.now)  # settle without advancing far

    def test_gc_applies_after_failure_recovered(self):
        fed = make_federation(
            nodes=2, clc_period=60.0, gc_period=None, total_time=1200.0,
            chatty=True, seed=12,
        )
        fed.start()
        fed.sim.run(until=400.0)
        fed.inject_failure(NodeId(1, 1))
        fed.sim.run(until=800.0)  # fully recovered
        stored_before = len(fed.protocol.cluster_states[0].store)
        fed.protocol.collect_garbage()
        fed.run()
        assert fed.protocol.garbage_collector.rounds_completed == 1
        assert len(fed.protocol.cluster_states[0].store) <= stored_before
        assert check_invariants(fed) == []

"""Edge-of-protocol tests: failures inside 2PC windows, partial DDV
coverage, recovery-window arrivals, FIFO properties."""

from hypothesis import given, settings, strategies as st

from repro.analysis.oracle import check_invariants
from repro.core.hc3i import Piggyback
from repro.network.message import Message, MessageKind, NodeId
from tests.conftest import make_federation


class TestFailureDuringRound:
    def test_crash_mid_collecting_aborts_round(self):
        """A node dies between request and ack: the round stalls, the
        rollback aborts it, and checkpointing resumes afterwards."""
        fed = make_federation(nodes=4, clc_period=None, total_time=400.0)
        fed.start()
        fed.sim.run(until=10.0)
        coordinator = fed.protocol.coordinators[0]
        # start a round and crash a participant in the same instant: its
        # ack is never sent and the detector reports the crash later
        fed.protocol.request_checkpoint(0)
        victim = fed.node(NodeId(0, 2))
        fed.inject_failure(victim.id)
        fed.sim.run(until=10.3)
        assert coordinator.phase == coordinator.COLLECTING  # stalled
        fed.sim.run(until=60.0)
        assert coordinator.phase == coordinator.IDLE
        # a fresh checkpoint succeeds after recovery
        sn_before = fed.protocol.cluster_states[0].sn
        fed.protocol.request_checkpoint(0)
        fed.sim.run(until=120.0)
        assert fed.protocol.cluster_states[0].sn == sn_before + 1
        assert check_invariants(fed) == []

    def test_crash_of_coordinator_mid_round(self):
        fed = make_federation(nodes=3, clc_period=None, total_time=400.0)
        fed.start()
        fed.sim.run(until=10.0)
        fed.protocol.request_checkpoint(0)
        leader = fed.node(NodeId(0, 0))
        fed.inject_failure(leader.id)
        fed.sim.run(until=100.0)
        assert leader.up
        assert fed.protocol.coordinators[0].phase == "idle"
        assert check_invariants(fed) == []

    def test_frozen_sends_discarded_by_rollback(self):
        """App messages queued during a round die with the rollback (their
        epoch was erased); re-execution regenerates traffic."""
        fed = make_federation(nodes=2, clc_period=None, total_time=400.0)
        fed.start()
        fed.sim.run(until=10.0)
        agent = fed.node(NodeId(0, 1)).agent
        agent.frozen = True
        agent.app_send(NodeId(0, 0), 64, None)
        assert len(agent.queued_out) == 1
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=60.0)
        assert agent.queued_out == []


class TestPartialDdvCoverage:
    def test_pending_multi_entry_waits_for_full_coverage(self):
        """In transitive mode a message may need several entries raised;
        it is delivered only once the committed DDV covers them all."""
        fed = make_federation(
            n_clusters=3, nodes=2, clc_period=None, total_time=400.0,
            protocol_options={"mode": "ddv"},
        )
        fed.start()
        fed.sim.run(until=5.0)
        agent = fed.node(NodeId(2, 0)).agent
        cs = fed.protocol.cluster_states[2]
        msg = Message(
            src=NodeId(1, 0), dst=NodeId(2, 0), kind=MessageKind.APP, size=64,
            piggyback=Piggyback(sn=1, epoch=0, ddv=(1, 1, 0)),
        )
        agent.handle_inter(msg)
        assert len(agent.pending_force) == 1
        assert agent.pending_force[0].updates == {0: 1, 1: 1}
        fed.sim.run(until=60.0)
        # the forced CLC committed with both entries; message delivered
        assert msg.msg_id in cs.delivered_ids
        assert cs.ddv[0] == 1 and cs.ddv[1] == 1

    def test_evaluate_pending_keeps_uncovered_entries(self):
        fed = make_federation(
            n_clusters=3, nodes=2, clc_period=None, total_time=400.0,
            protocol_options={"mode": "ddv"},
        )
        fed.start()
        fed.sim.run(until=5.0)
        agent = fed.node(NodeId(2, 0)).agent
        cs = fed.protocol.cluster_states[2]
        from repro.core.hc3i import PendingDelivery

        msg = Message(
            src=NodeId(1, 0), dst=NodeId(2, 0), kind=MessageKind.APP, size=64,
            piggyback=Piggyback(sn=9, epoch=0, ddv=(9, 9, 0)),
        )
        agent.pending_force.append(
            PendingDelivery(msg=msg, updates={0: 9, 1: 9}, ack_sn=2, created_sn=1)
        )
        agent.evaluate_pending()  # DDV still (0,0,1): nothing covered
        assert len(agent.pending_force) == 1
        assert msg.msg_id not in cs.delivered_ids


class TestRecoveryWindowArrivals:
    def test_arrival_during_recovery_deferred_then_processed(self):
        fed = make_federation(nodes=2, clc_period=None, total_time=400.0)
        fed.start()
        fed.sim.run(until=10.0)
        fed.inject_failure(NodeId(1, 1))
        fed.sim.run(until=10.6)  # detected; recovery window open
        cs = fed.protocol.cluster_states[1]
        assert cs.recovering
        agent = fed.node(NodeId(1, 0)).agent
        msg = Message(
            src=NodeId(0, 0), dst=NodeId(1, 0), kind=MessageKind.APP, size=64,
            piggyback=Piggyback(sn=1, epoch=0),
        )
        agent.on_receive(msg)
        assert msg in agent.deferred_in
        fed.sim.run(until=100.0)
        assert msg.msg_id in cs.delivered_ids
        assert check_invariants(fed) == []


class TestFifoProperty:
    @given(
        st.lists(
            st.integers(min_value=1, max_value=200_000),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_fifo_order_for_any_size_sequence(self, sizes):
        from repro.network.fabric import Fabric
        from repro.network.topology import two_cluster_topology
        from repro.sim.kernel import Simulator
        from repro.sim.stats import StatsRegistry

        sim = Simulator()
        topo = two_cluster_topology(nodes=1)
        fabric = Fabric(sim, topo, StatsRegistry(lambda: sim.now))
        received = []
        fabric.register(NodeId(0, 0), lambda m: None)
        fabric.register(NodeId(1, 0), lambda m: received.append(m.payload["i"]))
        for i, size in enumerate(sizes):
            fabric.send(
                Message(
                    src=NodeId(0, 0), dst=NodeId(1, 0), kind=MessageKind.APP,
                    size=size, payload={"i": i},
                )
            )
        sim.run()
        assert received == list(range(len(sizes)))

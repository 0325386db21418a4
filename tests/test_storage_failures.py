"""Unit tests for stable storage placement and failure injection."""

import pytest

from repro.cluster.storage import StableStorage
from repro.network.message import NodeId
from tests.conftest import make_federation


class TestStableStorage:
    def test_replica_holders_ring(self):
        st = StableStorage(cluster=0, n_nodes=5, replication_degree=2)
        assert st.replica_holders(0) == [1, 2]
        assert st.replica_holders(4) == [0, 1]  # wraps around
        assert st.holders_of(3) == [3, 4, 0]

    def test_degree_bounded_by_cluster_size(self):
        st = StableStorage(cluster=0, n_nodes=3, replication_degree=10)
        assert st.replication_degree == 2
        assert st.requested_degree == 10

    def test_states_held_paper_sizing(self):
        """§5.4: 63 CLCs with degree 1 -> 126 local states per node."""
        st = StableStorage(cluster=0, n_nodes=100, replication_degree=1)
        assert st.states_held_by(0, stored_clcs=63) == 126

    def test_single_fault_recoverable_degree_one(self):
        st = StableStorage(cluster=0, n_nodes=5, replication_degree=1)
        for node in range(5):
            assert st.recoverable([node])

    def test_adjacent_double_fault_lost_degree_one(self):
        """§3.1: "only one simultaneous fault in a cluster is tolerated"."""
        st = StableStorage(cluster=0, n_nodes=5, replication_degree=1)
        assert not st.recoverable([2, 3])  # node 2's replica lives on 3
        assert st.recoverable([2, 4])      # non-adjacent pair happens to be fine

    def test_degree_two_survives_two_faults(self):
        st = StableStorage(cluster=0, n_nodes=6, replication_degree=2)
        for pair in [(0, 1), (2, 3), (1, 4)]:
            assert st.recoverable(pair)
        assert not st.recoverable([0, 1, 2])  # node 0 and both replicas

    def test_degree_zero_nothing_survives(self):
        st = StableStorage(cluster=0, n_nodes=3, replication_degree=0)
        assert not st.recoverable([1])
        assert st.max_tolerated_faults() == 0

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            StableStorage(0, 3, 1).recoverable([7])

    def test_validation(self):
        with pytest.raises(ValueError):
            StableStorage(0, 0, 1)
        with pytest.raises(ValueError):
            StableStorage(0, 3, -1)


class TestFailureInjection:
    def test_manual_injection_fails_node(self):
        fed = make_federation()
        fed.start()
        fed.sim.run(until=10.0)
        node = fed.node(NodeId(0, 1))
        fed.inject_failure(node.id)
        assert not node.up
        assert node.failures == 1

    def test_failed_node_sends_nothing(self):
        fed = make_federation()
        fed.start()
        fed.sim.run(until=10.0)
        node = fed.node(NodeId(0, 1))
        node.fail()
        before = fed.fabric.protocol_message_count()
        from repro.network.message import MessageKind
        assert node.send_raw(NodeId(0, 0), MessageKind.INTER_ACK, 10) is None
        assert fed.fabric.protocol_message_count() == before

    def test_detection_triggers_rollback(self):
        fed = make_federation()
        fed.start()
        fed.sim.run(until=10.0)
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=20.0)
        assert fed.tracer.first("rollback", cluster=0) is not None

    def test_node_recovers_after_rollback(self):
        fed = make_federation()
        fed.start()
        fed.sim.run(until=10.0)
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=30.0)
        assert fed.node(NodeId(0, 1)).up

    def test_recovery_signal_triggered(self):
        fed = make_federation()
        fed.start()
        fed.sim.run(until=10.0)
        sig = fed.recovery_signal(0)
        fed.inject_failure(NodeId(0, 0))
        fed.sim.run(until=30.0)
        assert sig.triggered

    def test_mtbf_injector_causes_failures(self):
        from tests.conftest import (
            chatty_application,
            default_timers,
            small_topology,
        )
        from repro.cluster.federation import Federation

        topo = small_topology()
        topo.mtbf = 150.0
        fed = Federation(
            topo,
            chatty_application(total_time=1500.0),
            default_timers(clc_period=100.0),
            seed=4,
        )
        results = fed.run()
        assert results.counter("failures/injected") >= 1
        assert results.counter("rollback/failures") >= 1

    def test_one_fault_at_a_time(self):
        """The injector never crashes a second node before recovery."""
        from tests.conftest import (
            chatty_application,
            default_timers,
            small_topology,
        )
        from repro.cluster.federation import Federation
        from repro.sim.trace import TraceLevel

        topo = small_topology()
        topo.mtbf = 80.0
        fed = Federation(
            topo,
            chatty_application(total_time=2000.0),
            default_timers(clc_period=100.0),
            seed=9,
            trace_level=TraceLevel.PROTOCOL,
        )
        fed.run()
        # every node_failed is followed by a recovery before the next one
        state = {"down": 0}
        for rec in fed.tracer.records:
            if rec.kind == "node_failed":
                state["down"] += 1
                assert state["down"] <= 1
            elif rec.kind == "recovery_complete":
                state["down"] = 0

    def test_failing_down_node_is_noop(self):
        fed = make_federation()
        fed.start()
        fed.sim.run(until=5.0)
        node = fed.node(NodeId(1, 1))
        node.fail()
        node.fail()
        assert node.failures == 1

"""Tests for the four baseline protocols."""

import pytest

from repro.core.recovery_line import GHOST, IN_TRANSIT, line_targets
from repro.network.message import NodeId
from tests.conftest import make_federation


class TestGlobalCoordinated:
    def test_periodic_global_checkpoints(self):
        fed = make_federation(
            protocol="global-coordinated", clc_period=100.0, total_time=1000.0
        )
        results = fed.run()
        # initial + ~9 periodic
        assert 8 <= fed.protocol.state.sn <= 11

    def test_requests_cross_clusters(self):
        fed = make_federation(
            protocol="global-coordinated", nodes=2, n_clusters=2,
            clc_period=None, total_time=50.0,
        )
        results = fed.run()
        # one round: 3 requests (all nodes but the initiator)
        assert results.counter("net/protocol/clc_request") == 3
        assert results.counter("net/protocol/clc_ack") == 3
        assert results.counter("net/protocol_inter") >= 4  # WAN crossings

    def test_freeze_time_reflects_wan_latency(self):
        fed = make_federation(
            protocol="global-coordinated", clc_period=None, total_time=50.0
        )
        fed.run()
        freeze = fed.stats.tally("global/freeze_time")
        assert freeze.count > 0
        # freeze spans at least two WAN hops (~300 us), far above SAN RTT
        assert freeze.mean > 250e-6

    def test_failure_rolls_back_everyone(self):
        fed = make_federation(
            protocol="global-coordinated", clc_period=100.0, total_time=1000.0,
            chatty=True,
        )
        fed.start()
        fed.sim.run(until=450.0)
        fed.inject_failure(NodeId(1, 1))
        results = fed.run()
        assert results.counter("rollback/clusters_rolled") == 2
        lost = fed.stats.tally("rollback/lost_work")
        assert lost.count == 6  # every node of both clusters

    def test_apps_restart_everywhere(self):
        fed = make_federation(
            protocol="global-coordinated", clc_period=100.0, total_time=1000.0,
            chatty=True,
        )
        fed.start()
        fed.sim.run(until=450.0)
        fed.inject_failure(NodeId(0, 2))
        fed.sim.run(until=600.0)
        for cluster in fed.clusters:
            for node in cluster.nodes:
                assert node.up
                assert node.app_process is not None and node.app_process.alive


#: no sender logs: both inconsistency directions propagate
DOMINO = (GHOST, IN_TRANSIT)


class TestDominoTargets:
    def test_no_messages_only_faulty_rolls(self):
        targets = line_targets([[1, 2], [1, 2]], edges=[], failed=0, propagate=DOMINO)
        assert targets == [2, None]

    def test_ghost_pulls_receiver_back(self):
        # c0 sent in epoch 2 (after checkpoint 2), received by c1 in epoch 1
        edges = [(0, 2, 1, 1)]
        targets = line_targets([[1, 2], [1, 2]], edges, failed=0, propagate=DOMINO)
        # c0 restores 2 -> send epoch 2 erased -> c1 must erase the receive
        # (epoch 1): newest checkpoint <= 1 is 1
        assert targets == [2, 1]

    def test_in_transit_pulls_sender_back(self):
        # c1 sent in epoch 1, c0 received in epoch 2 (erased by rollback)
        edges = [(1, 1, 0, 2)]
        targets = line_targets([[1, 2], [1, 2]], edges, failed=0, propagate=DOMINO)
        assert targets[0] == 2
        assert targets[1] == 1  # sender must unsend

    def test_domino_cascade(self):
        # c0's epoch-3 send was received by c1 in epoch 2 (ghost after the
        # failure), and c1's epoch-2 send was received by c0 in epoch 2:
        # the cascade unwinds both clusters one interval further.
        edges = [
            (0, 1, 1, 1),
            (1, 1, 0, 1),
            (0, 3, 1, 2),
            (1, 2, 0, 2),
        ]
        targets = line_targets([[1, 2, 3], [1, 2, 3]], edges, failed=0, propagate=DOMINO)
        assert targets == [2, 2]

    def test_rolling_to_last_checkpoint_is_harmless(self):
        # all exchanges predate the last checkpoints: only the faulty
        # cluster rolls (to its last CLC), nobody else moves
        edges = [
            (0, 1, 1, 1),
            (1, 1, 0, 1),
            (0, 2, 1, 2),
            (1, 2, 0, 2),
        ]
        targets = line_targets([[1, 2, 3], [1, 2, 3]], edges, failed=0, propagate=DOMINO)
        assert targets == [3, None]

    def test_kept_messages_dont_trigger(self):
        edges = [(0, 0, 1, 0)]  # exchanged before any checkpoint of interest
        targets = line_targets([[1, 2], [1, 2]], edges, failed=0, propagate=DOMINO)
        assert targets == [2, None]

    def test_needs_checkpoint(self):
        with pytest.raises(ValueError):
            line_targets([[], [1]], [], failed=0, propagate=DOMINO)


class TestIndependentProtocol:
    def test_periodic_cluster_checkpoints(self):
        fed = make_federation(
            protocol="independent", clc_period=100.0, total_time=1000.0
        )
        results = fed.run()
        for c in range(2):
            assert results.clc_counts(c)["total"] >= 9
            assert results.clc_counts(c)["forced"] == 0

    def test_dependencies_recorded(self):
        fed = make_federation(
            protocol="independent", clc_period=100.0, total_time=1000.0,
            chatty=True,
        )
        results = fed.run()
        assert len(fed.protocol.edges) > 0
        assert results.clusters[0]["dependency_edges"] > 0

    def test_failure_uses_domino(self):
        fed = make_federation(
            protocol="independent", clc_period=100.0, total_time=2000.0,
            chatty=True,
        )
        fed.start()
        fed.sim.run(until=900.0)
        fed.inject_failure(NodeId(0, 1))
        results = fed.run()
        assert results.counter("rollback/failures") == 1
        assert results.counter("rollback/total") >= 1
        depth = fed.stats.tally("independent/rollback_depth")
        assert depth.count >= 1

    def test_erased_edges_pruned(self):
        fed = make_federation(
            protocol="independent", clc_period=100.0, total_time=2000.0,
            chatty=True,
        )
        fed.start()
        fed.sim.run(until=900.0)
        edges_before = len(fed.protocol.edges)
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=1200.0)
        for src, s_e, dst, r_e in fed.protocol.edges:
            st_s = fed.protocol.cluster_states[src]
            st_d = fed.protocol.cluster_states[dst]
            assert s_e <= st_s.sn
            assert r_e <= st_d.sn


class TestPessimisticLog:
    def test_every_message_logged(self):
        fed = make_federation(
            protocol="pessimistic-log", clc_period=200.0, total_time=1000.0,
            chatty=True,
        )
        results = fed.run()
        total_app = sum(results.messages.values())
        assert results.counter("pessimistic/log_messages") == total_app
        assert results.counter("pessimistic/log_bytes") > 0

    def test_only_failed_node_rolls_back(self):
        fed = make_federation(
            protocol="pessimistic-log", clc_period=200.0, total_time=1000.0,
            chatty=True,
        )
        fed.start()
        fed.sim.run(until=400.0)
        victim = fed.node(NodeId(0, 1))
        witness = fed.node(NodeId(0, 0))
        fed.inject_failure(victim.id)
        fed.sim.run(until=600.0)
        results = fed.results()
        assert results.counter("rollback/nodes_rolled") == 1
        assert victim.up
        # the witness's app process was never interrupted
        assert witness.app_process is not None and witness.app_process.alive

    def test_per_node_checkpoints_staggered(self):
        fed = make_federation(
            protocol="pessimistic-log", nodes=4, clc_period=200.0,
            total_time=1000.0,
        )
        results = fed.run()
        # 8 nodes x (initial + ~4-5 periodic)
        total = sum(results.clc_counts(c)["total"] for c in range(2))
        assert total >= 8 * 4

    def test_lost_work_single_node_scale(self):
        fed = make_federation(
            protocol="pessimistic-log", clc_period=200.0, total_time=1000.0,
            chatty=True,
        )
        fed.start()
        fed.sim.run(until=500.0)
        fed.inject_failure(NodeId(1, 1))
        fed.sim.run(until=700.0)
        lost = fed.stats.tally("rollback/lost_work")
        assert lost.count == 1  # one node's work, not a cluster's


class TestCicAlways:
    def test_forces_per_message(self):
        from repro.app.process import scripted_sender_factory

        sends = [(float(t), NodeId(1, 0), 100) for t in range(10, 100, 10)]
        fed = make_federation(
            protocol="cic-always",
            clc_period=None,
            total_time=300.0,
            app_factory=scripted_sender_factory({NodeId(0, 0): sends}),
        )
        results = fed.run()
        assert results.clc_counts(1)["forced"] == len(sends)

    def test_hc3i_forces_once_for_same_sn(self):
        from repro.app.process import scripted_sender_factory

        sends = [(float(t), NodeId(1, 0), 100) for t in range(10, 100, 10)]
        fed = make_federation(
            protocol="hc3i",
            clc_period=None,
            total_time=300.0,
            app_factory=scripted_sender_factory({NodeId(0, 0): sends}),
        )
        results = fed.run()
        assert results.clc_counts(1)["forced"] == 1

    def test_registered_with_mode_always(self):
        fed = make_federation(protocol="cic-always", total_time=10.0)
        assert fed.protocol.options.mode == "always"

    def test_transitive_registered_with_mode_ddv(self):
        fed = make_federation(protocol="hc3i-transitive", total_time=10.0)
        assert fed.protocol.options.mode == "ddv"

"""Unit tests for messages, topology and the fabric."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.app.workloads import table1_workload
from repro.cluster.federation import Federation
from repro.cluster.node import Node
from repro.network.message import Message, MessageKind, NodeId
from repro.network.topology import (
    ETHERNET_LIKE,
    MYRINET_LIKE,
    ClusterSpec,
    LinkSpec,
    Topology,
    two_cluster_topology,
)
from repro.network.fabric import Fabric
from repro.sim import snapshot
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry


def make_fabric(topology=None):
    sim = Simulator()
    topo = topology or two_cluster_topology(nodes=3)
    stats = StatsRegistry(lambda: sim.now)
    fabric = Fabric(sim, topo, stats, tracer=None)
    return sim, topo, stats, fabric


class TestNodeId:
    def test_ordering_and_equality(self):
        assert NodeId(0, 1) == NodeId(0, 1)
        assert NodeId(0, 1) < NodeId(1, 0)
        assert str(NodeId(2, 5)) == "c2n5"

    def test_hashable(self):
        assert len({NodeId(0, 1), NodeId(0, 1), NodeId(1, 1)}) == 2

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_is_the_cluster_node_pair(self, c, n):
        """What every dict, set and sort keyed by ids relies on."""
        node_id = NodeId(c, n)
        assert (node_id.cluster, node_id.node) == (c, n)
        assert hash(node_id) == hash((c, n))
        assert str(node_id) == f"c{c}n{n}"
        assert repr(node_id) == f"NodeId(cluster={c}, node={n})"
        for thawed in (
            pickle.loads(pickle.dumps(node_id)),
            snapshot.loads(snapshot.dumps(node_id)),
        ):
            assert type(thawed) is NodeId and thawed == node_id

    @given(*[st.integers(0, 50)] * 4)
    def test_orders_like_the_pair(self, c1, n1, c2, n2):
        a, b = NodeId(c1, n1), NodeId(c2, n2)
        assert (a < b, a <= b, a == b, a != b, a >= b, a > b) == (
            (c1, n1) < (c2, n2), (c1, n1) <= (c2, n2), (c1, n1) == (c2, n2),
            (c1, n1) != (c2, n2), (c1, n1) >= (c2, n2), (c1, n1) > (c2, n2),
        )


class TestMessage:
    def test_unique_increasing_ids(self):
        """Ids are the fabric's: a node's sends count up from 1, and a
        message built by hand has none (and takes none from the fabric)."""
        sim, topo, stats, fabric = make_fabric()
        a, b = (Node(NodeId(0, i), sim, fabric) for i in range(2))
        bare = Message(a.id, b.id, MessageKind.APP, 10)
        assert bare.msg_id is None
        fabric.send(bare)
        sent = [a.send_raw(b.id, MessageKind.APP, 10), b.send_raw(a.id, MessageKind.APP, 10)]
        assert [m.msg_id for m in sent] == [1, 2]
        assert fabric.next_msg_id == 3

    def test_inter_cluster_flag(self):
        intra = Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 1)
        inter = Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 1)
        assert not intra.inter_cluster
        assert inter.inter_cluster

    def test_replay_clone_keeps_identity(self):
        msg = Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 9,
                      payload={"k": 1}, piggyback="pb")
        clone = msg.clone_for_replay()
        assert clone.msg_id == msg.msg_id
        assert clone.kind is MessageKind.REPLAY
        assert clone.piggyback == "pb"
        assert clone.payload == {"k": 1}
        assert clone.payload is not msg.payload

    def test_is_app_kinds(self):
        assert MessageKind.APP.is_app
        assert MessageKind.REPLAY.is_app
        assert not MessageKind.CLC_REQUEST.is_app
        assert not MessageKind.ALERT.is_app

    def test_kind_index_is_dense_in_definition_order(self):
        """The fabric's cells are rows of a list indexed by it."""
        assert [kind.index for kind in MessageKind] == list(range(15))
        for kind in MessageKind:
            thawed = pickle.loads(pickle.dumps(kind))
            assert thawed is kind and thawed.index == kind.index


class TestLinkSpec:
    def test_transfer_delay(self):
        link = LinkSpec(latency=1e-3, bandwidth=8e6)  # 8 Mb/s = 1 MB/s
        assert link.transfer_delay(1000) == pytest.approx(1e-3 + 1e-3)

    def test_paper_link_constants(self):
        assert MYRINET_LIKE.latency == pytest.approx(10e-6)
        assert MYRINET_LIKE.bandwidth == pytest.approx(80e6)
        assert ETHERNET_LIKE.latency == pytest.approx(150e-6)
        assert ETHERNET_LIKE.bandwidth == pytest.approx(100e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(latency=-1.0, bandwidth=1.0)
        with pytest.raises(ValueError):
            LinkSpec(latency=0.0, bandwidth=0.0)


class TestTopology:
    def test_counts(self):
        topo = two_cluster_topology(nodes=100)
        assert topo.n_clusters == 2
        assert topo.total_nodes == 200
        assert topo.nodes_in(1) == 100

    def test_all_nodes(self):
        topo = two_cluster_topology(nodes=2)
        assert list(topo.all_nodes()) == [
            NodeId(0, 0), NodeId(0, 1), NodeId(1, 0), NodeId(1, 1)
        ]

    def test_intra_link_is_cluster_san(self):
        topo = two_cluster_topology()
        assert topo.link_between(0, 0) is topo.clusters[0].link

    def test_inter_link_symmetric(self):
        link = LinkSpec(latency=1.0, bandwidth=1.0)
        topo = Topology(
            clusters=[ClusterSpec("a", 1), ClusterSpec("b", 1)],
            inter_links={(1, 0): link},  # reversed key normalizes
        )
        assert topo.link_between(0, 1) is link
        assert topo.link_between(1, 0) is link

    def test_default_inter_link_fills_missing(self):
        topo = Topology(
            clusters=[ClusterSpec("a", 1), ClusterSpec("b", 1), ClusterSpec("c", 1)],
            inter_links={},
        )
        assert topo.link_between(0, 2) is topo.default_inter_link

    def test_self_link_in_inter_links_rejected(self):
        with pytest.raises(ValueError):
            Topology(
                clusters=[ClusterSpec("a", 1)],
                inter_links={(0, 0): MYRINET_LIKE},
            )

    def test_unknown_cluster_in_links_rejected(self):
        with pytest.raises(ValueError):
            Topology(
                clusters=[ClusterSpec("a", 1)],
                inter_links={(0, 3): MYRINET_LIKE},
            )

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            Topology(clusters=[])

    def test_invalid_mtbf_rejected(self):
        with pytest.raises(ValueError):
            Topology(clusters=[ClusterSpec("a", 1)], mtbf=0.0)

    def test_failures_enabled(self):
        assert not Topology(clusters=[ClusterSpec("a", 1)]).failures_enabled
        assert Topology(clusters=[ClusterSpec("a", 1)], mtbf=10.0).failures_enabled

    def test_delay_uses_right_link(self):
        topo = two_cluster_topology()
        intra = topo.delay(NodeId(0, 0), NodeId(0, 1), 1000)
        inter = topo.delay(NodeId(0, 0), NodeId(1, 0), 1000)
        assert intra == pytest.approx(10e-6 + 8000 / 80e6)
        assert inter == pytest.approx(150e-6 + 8000 / 100e6)

    def test_validate_node(self):
        topo = two_cluster_topology(nodes=2)
        topo.validate_node(NodeId(1, 1))
        with pytest.raises(ValueError):
            topo.validate_node(NodeId(2, 0))
        with pytest.raises(ValueError):
            topo.validate_node(NodeId(0, 5))

    def test_cluster_needs_nodes(self):
        with pytest.raises(ValueError):
            ClusterSpec("x", 0)


class TestFabric:
    def test_delivers_to_registered_receiver(self):
        sim, topo, stats, fabric = make_fabric()
        got = []
        fabric.register(NodeId(0, 0), got.append)
        fabric.register(NodeId(0, 1), got.append)
        msg = Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 100)
        fabric.send(msg)
        sim.run()
        assert got == [msg]

    def test_delivery_time_matches_link_model(self):
        sim, topo, stats, fabric = make_fabric()
        seen = []
        fabric.register(NodeId(0, 0), lambda m: None)
        fabric.register(NodeId(1, 0), lambda m: seen.append(sim.now))
        fabric.send(Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 1000))
        sim.run()
        assert seen == [pytest.approx(150e-6 + 8000 / 100e6)]

    def test_unregistered_destination_rejected(self):
        sim, topo, stats, fabric = make_fabric()
        fabric.register(NodeId(0, 0), lambda m: None)
        with pytest.raises(ValueError):
            fabric.send(Message(NodeId(0, 0), NodeId(1, 2), MessageKind.APP, 1))

    def test_double_registration_rejected(self):
        sim, topo, stats, fabric = make_fabric()
        fabric.register(NodeId(0, 0), lambda m: None)
        with pytest.raises(ValueError):
            fabric.register(NodeId(0, 0), lambda m: None)

    def test_fifo_per_channel(self):
        sim, topo, stats, fabric = make_fabric()
        order = []
        fabric.register(NodeId(0, 0), lambda m: None)
        fabric.register(NodeId(0, 1), lambda m: order.append(m.payload["n"]))
        # big slow message first, small fast one second: FIFO keeps order
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP,
                            10_000_000, payload={"n": 1}))
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP,
                            1, payload={"n": 2}))
        sim.run()
        assert order == [1, 2]

    def test_app_message_matrix(self):
        sim, topo, stats, fabric = make_fabric()
        for node in topo.all_nodes():
            fabric.register(node, lambda m: None)
        fabric.send(Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 1))
        fabric.send(Message(NodeId(0, 1), NodeId(1, 2), MessageKind.APP, 1))
        fabric.send(Message(NodeId(1, 0), NodeId(1, 1), MessageKind.APP, 1))
        sim.run()
        assert fabric.app_message_count(0, 1) == 2
        assert fabric.app_message_count(1, 1) == 1
        assert fabric.app_message_count(1, 0) == 0
        matrix = fabric.app_message_matrix()
        assert matrix[(0, 1)] == 2

    def test_protocol_messages_counted_separately(self):
        sim, topo, stats, fabric = make_fabric()
        for node in topo.all_nodes():
            fabric.register(node, lambda m: None)
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.CLC_REQUEST, 64))
        fabric.send(Message(NodeId(0, 0), NodeId(1, 0), MessageKind.ALERT, 64))
        sim.run()
        assert fabric.protocol_message_count() == 2
        assert fabric.protocol_message_count(MessageKind.ALERT) == 1
        assert fabric.app_message_count(0, 1) == 0
        assert stats.counter("net/protocol_inter").value == 1

    def test_replay_not_in_app_matrix(self):
        sim, topo, stats, fabric = make_fabric()
        for node in topo.all_nodes():
            fabric.register(node, lambda m: None)
        original = Message(NodeId(0, 0), NodeId(1, 0), MessageKind.APP, 10)
        fabric.send(original)
        fabric.send(original.clone_for_replay())
        sim.run()
        assert fabric.app_message_count(0, 1) == 1
        assert stats.counter("net/replays").value == 1

    def test_send_time_stamped(self):
        sim, topo, stats, fabric = make_fabric()
        fabric.register(NodeId(0, 0), lambda m: None)
        fabric.register(NodeId(0, 1), lambda m: None)
        msg = Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 1)
        sim.schedule(5.0, fabric.send, msg)
        sim.run()
        assert msg.send_time == 5.0

    def test_byte_accounting(self):
        sim, topo, stats, fabric = make_fabric()
        for node in topo.all_nodes():
            fabric.register(node, lambda m: None)
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 500))
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.REPLICA, 300))
        sim.run()
        assert stats.counter("net/bytes/app").value == 500
        assert stats.counter("net/bytes/protocol").value == 300

    def test_negative_size_refused_before_any_state_moves(self):
        sim, topo, stats, fabric = make_fabric()
        arrivals = []
        fabric.register(NodeId(0, 0), lambda m: None)
        fabric.register(NodeId(0, 1), lambda m: arrivals.append(sim.now))
        bad = Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, -5)
        with pytest.raises(ValueError, match=f"Msg#{bad.msg_id} "):
            fabric.send(bad)
        # no row for traffic that never happened, nothing in flight, and the
        # channel's FIFO slot did not move: the next send is not held back
        assert stats.names() == []
        assert sim.pending == 0
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 100))
        sim.run()
        assert arrivals == [sim.now] == [MYRINET_LIKE.transfer_delay(100)]
        assert stats.counter("net/bytes/kind/app").value == 100

    def test_two_federations_in_one_process_each_number_from_one(self):
        """The ``repro serve`` compute-thread case: runs that interleave in
        one address space do not interleave their ids."""
        def spied(seed):
            topology, application, timers = table1_workload(nodes=4, total_time=1800.0)
            fed = Federation(topology, application, timers, seed=seed)
            sent, send = [], fed.fabric.send

            def spy(msg):
                sent.append(msg.msg_id)
                return send(msg)

            fed.fabric.send = spy
            fed.start()
            return fed, sent

        feds = [spied(7), spied(8)]
        for horizon in range(100, 1900, 100):
            for fed, _ in feds:
                fed.sim.run(until=float(horizon))
        for fed, sent in feds:
            assert len(sent) > 10
            assert sent == list(range(1, len(sent) + 1))
            assert fed.fabric.next_msg_id == len(sent) + 1

    def test_restored_cells_are_the_restored_registrys_counters(self):
        topology, application, timers = table1_workload(nodes=4, total_time=1800.0)
        fed = Federation(topology, application, timers, protocol="hc3i", seed=7)
        fed.start()
        fed.sim.run(until=900.0)
        restored = snapshot.loads(snapshot.dumps(fed))
        fabric, stats = restored.fabric, restored.stats
        opened = [cell for cell in fabric._cells if cell is not None]
        assert opened
        for cell in opened:
            for counter in cell:
                assert counter is None or stats.counter(counter.name) is counter
        before = restored.results().stats
        fabric.send(Message(NodeId(0, 0), NodeId(0, 1), MessageKind.APP, 123))
        after = restored.results().stats
        assert after["net/app/c0->c0"] == before.get("net/app/c0->c0", 0) + 1
        assert after["net/bytes/kind/app"] == before.get("net/bytes/kind/app", 0) + 123
        assert after["net/bytes/app"] == before.get("net/bytes/app", 0) + 123

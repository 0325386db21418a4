"""Unit tests for nodes, cluster runtimes and the protocol registry."""

import pytest

from repro.cluster.node import ClusterRuntime, Node
from repro.core.protocol import (
    BaseProtocol,
    make_protocol,
    protocol_names,
    register_protocol,
)
from repro.network.fabric import Fabric
from repro.network.message import Message, MessageKind, NodeId
from repro.network.topology import two_cluster_topology
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from tests.conftest import make_federation


class RecordingAgent:
    """Minimal agent double for node-level tests."""

    def __init__(self):
        self.received = []
        self.sent = []
        self.failed = 0
        self.recovered = 0

    def on_receive(self, msg):
        self.received.append(msg)

    def app_send(self, dst, size, payload=None):
        self.sent.append((dst, size))

    def buffer_while_down(self, msg):
        return msg.kind is MessageKind.ALERT

    def on_node_failed(self):
        self.failed += 1

    def on_node_recovered(self):
        self.recovered += 1


def build_node_pair():
    sim = Simulator()
    topo = two_cluster_topology(nodes=2)
    stats = StatsRegistry(lambda: sim.now)
    fabric = Fabric(sim, topo, stats)
    a = Node(NodeId(0, 0), sim, fabric)
    b = Node(NodeId(0, 1), sim, fabric)
    a.agent, b.agent = RecordingAgent(), RecordingAgent()
    a._stats = b._stats = stats
    return sim, a, b


class TestNode:
    def test_send_raw_and_receive(self):
        sim, a, b = build_node_pair()
        a.send_raw(b.id, MessageKind.INTER_ACK, size=10, payload={"x": 1})
        sim.run()
        assert len(b.agent.received) == 1
        assert b.agent.received[0].payload == {"x": 1}

    def test_send_app_goes_through_agent(self):
        sim, a, b = build_node_pair()
        a.send_app(b.id, 99)
        assert a.agent.sent == [(b.id, 99)]

    def test_down_node_drops_sends(self):
        sim, a, b = build_node_pair()
        a.fail()
        assert a.send_raw(b.id, MessageKind.INTER_ACK, size=10) is None
        a.send_app(b.id, 5)
        assert a.agent.sent == []

    def test_fail_notifies_agent_once(self):
        sim, a, b = build_node_pair()
        a.fail()
        a.fail()
        assert a.agent.failed == 1

    def test_recover_flushes_buffered(self):
        sim, a, b = build_node_pair()
        b.fail()
        a.send_raw(b.id, MessageKind.ALERT, size=10)      # buffered
        a.send_raw(b.id, MessageKind.INTER_ACK, size=10)  # dropped by policy
        sim.run()
        assert b.agent.received == []
        b.recover()
        assert len(b.agent.received) == 1
        assert b.agent.received[0].kind is MessageKind.ALERT
        assert b.agent.recovered == 1

    def test_recover_when_up_is_noop(self):
        sim, a, b = build_node_pair()
        a.recover()
        assert a.agent.recovered == 0

    def test_deliver_app_counts_and_sinks(self):
        sim, a, b = build_node_pair()
        got = []
        b.app_sink = got.append
        msg = Message(a.id, b.id, MessageKind.APP, 10)
        b.deliver_app(msg)
        assert got == [msg]

    def test_system_hook_consumes(self):
        sim, a, b = build_node_pair()
        b.system_hook = lambda m: True  # eat everything
        a.send_raw(b.id, MessageKind.INTER_ACK, size=10)
        sim.run()
        assert b.agent.received == []

    def test_system_hook_pass_through(self):
        sim, a, b = build_node_pair()
        b.system_hook = lambda m: False
        a.send_raw(b.id, MessageKind.INTER_ACK, size=10)
        sim.run()
        assert len(b.agent.received) == 1


class TestClusterRuntime:
    def test_leader_and_lookup(self):
        sim, a, b = build_node_pair()
        runtime = ClusterRuntime(0, [a, b])
        assert runtime.leader is a
        assert runtime.node(1) is b
        assert runtime.size == 2
        assert list(runtime) == [a, b]


class TestProtocolRegistry:
    def test_known_names(self):
        names = protocol_names()
        for expected in (
            "hc3i",
            "hc3i-transitive",
            "cic-always",
            "global-coordinated",
            "independent",
            "pessimistic-log",
        ):
            assert expected in names

    def test_unknown_name_raises_with_choices(self):
        fed = make_federation(total_time=10.0)
        with pytest.raises(ValueError, match="available"):
            make_protocol("nope", fed)

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError):

            @register_protocol("hc3i")
            class Duplicate(BaseProtocol):  # pragma: no cover
                def make_agent(self, node):
                    raise NotImplementedError

                def start(self):
                    raise NotImplementedError

                def on_failure_detected(self, node):
                    raise NotImplementedError

    def test_name_attribute_set(self):
        from repro.core.hc3i import Hc3iProtocol

        assert Hc3iProtocol.name == "hc3i"

    def test_default_cluster_summary_empty(self):
        fed = make_federation(total_time=10.0)

        class Minimal(BaseProtocol):
            def make_agent(self, node):  # pragma: no cover
                raise NotImplementedError

            def start(self):  # pragma: no cover
                raise NotImplementedError

            def on_failure_detected(self, node):  # pragma: no cover
                raise NotImplementedError

        proto = Minimal(fed)
        assert proto.cluster_summary(0) == {}
        assert proto.sim is fed.sim
        assert proto.stats is fed.stats

"""Protocol tests: the intra-cluster two-phase commit (§3.1)."""

import pytest

from repro.analysis.oracle import assert_consistent, attach_oracle
from repro.core.clc import CheckpointCause
from repro.network.message import MessageKind, NodeId
from repro.app.process import scripted_sender_factory
from tests.conftest import make_federation


def run_initial(fed):
    """Run long enough for the initial CLCs to commit."""
    fed.start()
    fed.sim.run(until=1.0)
    return fed


class TestInitialCheckpoint:
    def test_every_cluster_commits_initial_clc(self):
        fed = run_initial(make_federation())
        for cs in fed.protocol.cluster_states:
            assert cs.sn == 1
            assert len(cs.store) == 1
            assert cs.store.last().cause is CheckpointCause.INITIAL

    def test_initial_ddv_own_entry_only(self):
        fed = run_initial(make_federation(n_clusters=3))
        for c, cs in enumerate(fed.protocol.cluster_states):
            expected = [0, 0, 0]
            expected[c] = 1
            assert list(cs.ddv) == expected

    def test_single_node_cluster_commits_alone(self):
        fed = run_initial(make_federation(nodes=1))
        assert fed.protocol.cluster_states[0].sn == 1


class TestTimerCheckpoints:
    def test_periodic_unforced_clcs(self):
        fed = make_federation(clc_period=100.0, total_time=1000.0)
        results = fed.run()
        counts = results.clc_counts(0)
        # ~1000/100 = 10 timer CLCs plus the initial one
        assert counts["initial"] == 1
        assert 8 <= counts["unforced"] <= 10
        assert counts["forced"] == 0

    def test_infinite_timer_no_unforced(self):
        fed = make_federation(clc_period=None, total_time=1000.0)
        results = fed.run()
        assert results.clc_counts(0)["unforced"] == 0
        assert results.clc_counts(0)["total"] == 1  # just the initial

    def test_sn_increments_per_commit(self):
        fed = make_federation(clc_period=100.0, total_time=500.0)
        fed.run()
        cs = fed.protocol.cluster_states[0]
        assert cs.sn == len(cs.store)
        assert cs.store.sns() == list(range(1, cs.sn + 1))


class TestTwoPhaseTraffic:
    def test_request_ack_commit_counts(self):
        """N-1 requests, N-1 acks, N-1 commits, N replicas per round."""
        fed = make_federation(
            n_clusters=1, nodes=4, clc_period=None, total_time=50.0
        )
        results = fed.run()  # only the initial CLC happens
        assert results.counter("net/protocol/clc_request") == 3
        assert results.counter("net/protocol/clc_ack") == 3
        assert results.counter("net/protocol/clc_commit") == 3
        assert results.counter("net/protocol/replica") == 4

    def test_replica_count_scales_with_degree(self):
        fed = make_federation(
            n_clusters=1,
            nodes=4,
            clc_period=None,
            total_time=50.0,
            protocol_options={"replication_degree": 2},
        )
        results = fed.run()
        assert results.counter("net/protocol/replica") == 8

    def test_degree_zero_no_replicas(self):
        fed = make_federation(
            n_clusters=1,
            nodes=4,
            clc_period=None,
            total_time=50.0,
            protocol_options={"replication_degree": 0},
        )
        results = fed.run()
        assert results.counter("net/protocol/replica") == 0


class TestFreezing:
    def test_app_sends_frozen_during_round(self):
        """A message handed to the protocol mid-2PC leaves after commit."""
        # node 1 sends intra-cluster at t=10.000001; the CLC round started
        # at t=10 and takes ~2 SAN hops to commit, so the send is queued.
        fed = make_federation(
            nodes=3,
            clc_period=None,
            total_time=30.0,
            app_factory=scripted_sender_factory({
                NodeId(0, 1): [(10.000001, NodeId(0, 2), 100)],
            }),
        )
        fed.start()
        fed.sim.schedule_at(10.0, fed.protocol.request_checkpoint, 0)
        fed.sim.run(until=30.0)
        # the message did go out eventually
        assert fed.fabric.app_message_count(0, 0) == 1
        # and its send time is after the commit of CLC 2
        commit = fed.tracer.first("clc_commit", cluster=0, sn=2)
        send = next(iter(
            m for m in fed.tracer.find("send")
        ), None) if fed.tracer.level >= 2 else None
        assert commit is not None

    def test_queued_out_flushed_in_order(self):
        fed = make_federation(nodes=2, clc_period=None, total_time=30.0)
        fed.start()
        fed.sim.run(until=5.0)
        agent = fed.node(NodeId(0, 1)).agent
        agent.frozen = True  # simulate freeze window
        agent.app_send(NodeId(0, 0), 10, {"n": 1})
        agent.app_send(NodeId(0, 0), 10, {"n": 2})
        assert fed.fabric.app_message_count(0, 0) == 0
        agent.unfreeze()
        fed.sim.run(until=6.0)
        assert fed.fabric.app_message_count(0, 0) == 2

    def test_inter_cluster_arrival_deferred_during_round(self):
        fed = make_federation(nodes=2, clc_period=None, total_time=30.0)
        fed.start()
        fed.sim.run(until=5.0)
        agent = fed.node(NodeId(1, 0)).agent
        agent.frozen = True
        # hand-craft an inter-cluster arrival
        from repro.core.hc3i import Piggyback
        from repro.network.message import Message

        msg = Message(
            src=NodeId(0, 0), dst=NodeId(1, 0), kind=MessageKind.APP,
            size=10, piggyback=Piggyback(sn=1, epoch=0),
        )
        agent.on_receive(msg)
        assert agent.deferred_in == [msg]
        cs = fed.protocol.cluster_states[1]
        assert msg.msg_id not in cs.delivered_ids
        agent.unfreeze()
        fed.sim.run(until=6.0)
        assert msg.msg_id in cs.delivered_ids


class TestManualCheckpoint:
    def test_request_checkpoint_commits_manual_clc(self):
        fed = make_federation(clc_period=None, total_time=100.0)
        fed.start()
        fed.sim.schedule_at(10.0, fed.protocol.request_checkpoint, 0)
        fed.sim.run(until=100.0)
        cs = fed.protocol.cluster_states[0]
        assert cs.sn == 2
        assert cs.store.last().cause is CheckpointCause.MANUAL

    def test_concurrent_requests_merge_into_rounds(self):
        fed = make_federation(clc_period=None, total_time=100.0)
        fed.start()
        # three instantaneous requests: the first starts a round, the other
        # two merge into the single follow-up round
        for _ in range(3):
            fed.sim.schedule_at(10.0, fed.protocol.request_checkpoint, 0)
        fed.sim.run(until=100.0)
        assert fed.protocol.cluster_states[0].sn <= 3

    def test_timer_resets_on_forced_commit(self):
        """§5.2: the unforced-CLC timer restarts when any CLC commits."""
        fed = make_federation(clc_period=100.0, total_time=260.0)
        fed.start()
        fed.sim.schedule_at(90.0, fed.protocol.request_checkpoint, 0)
        fed.sim.run(until=260.0)
        commits = [r["sn"] for r in fed.tracer.find("clc_commit", cluster=0)]
        times = [r.time for r in fed.tracer.find("clc_commit", cluster=0)]
        # initial (~0), manual (~90), then timer at ~190 -- NOT at 100
        assert len(times) == 3
        assert times[2] == pytest.approx(190.0, abs=1.0)


# ----------------------------------------------------------------------
# the 2PC contract, once, for every family that runs rounds
# ----------------------------------------------------------------------

#: family -> nodes taking part in each round the t=10 timers start on a
#: 2 x 3 federation: the participant set is what a family chooses
ROUND_FAMILIES = {
    "hc3i": [3, 3],                 # one round per cluster
    "independent": [3, 3],
    "clc-cic": [3, 3],
    "min-process": [3],             # one round at a time; nothing entangled yet
    "global-coordinated": [6],      # the whole federation
}

ROUND_KINDS = ("clc_request", "clc_ack", "clc_commit")


def record_sends(fed):
    """Every message handed to the fabric, as ``(time, msg)``, in order."""
    sent = []
    fabric_send = fed.fabric.send

    def shim(msg):
        sent.append((fed.sim.now, msg))
        return fabric_send(msg)

    fed.fabric.send = shim
    return sent


def step_until(fed, condition, limit=100_000):
    for _ in range(limit):
        if condition():
            return
        assert fed.sim.step(), "simulation drained before the condition held"
    raise AssertionError("condition never held")


@pytest.mark.parametrize("protocol", sorted(ROUND_FAMILIES))
class TestRoundContract:
    def test_round_costs_participants_minus_one_of_each(self, protocol):
        fed = make_federation(
            n_clusters=2, nodes=3, clc_period=10.0, total_time=15.0, protocol=protocol
        )
        fed.start()
        fed.sim.run(until=5.0)  # initial checkpoints settle

        def counts():
            return [fed.stats.counter(f"net/protocol/{k}").value for k in ROUND_KINDS]

        before = counts()
        fed.sim.run(until=15.0)
        expected = sum(p - 1 for p in ROUND_FAMILIES[protocol])
        assert [a - b for a, b in zip(counts(), before)] == [expected] * 3

    def test_sends_inside_the_window_leave_in_order_after_commit(self, protocol):
        fed = make_federation(
            n_clusters=2, nodes=3, clc_period=10.0, total_time=15.0, protocol=protocol
        )
        sent = record_sends(fed)
        fed.start()
        fed.sim.run(until=9.0)
        node = fed.node(NodeId(0, 1))
        step_until(fed, lambda: node.agent.frozen)
        frozen_at = fed.sim.now
        for size in (100, 200, 300):
            node.send_app(NodeId(0, 2), size)
        assert len(node.agent.queued_out) == 3
        fed.sim.run(until=15.0)

        assert not node.agent.frozen and node.agent.queued_out == []
        commit_at = next(
            t for t, m in sent
            if m.kind is MessageKind.CLC_COMMIT and m.dst == node.id and t >= frozen_at
        )
        app = [(t, m.size) for t, m in sent if m.kind is MessageKind.APP and m.src == node.id]
        assert [size for _, size in app] == [100, 200, 300]
        assert all(t > commit_at for t, _ in app)

    def test_participant_crash_between_request_and_commit(self, protocol):
        """ROADMAP correctness 3b: crash during the 2PC freeze."""
        victim, bystander = NodeId(0, 1), NodeId(0, 2)
        fed = make_federation(
            n_clusters=2, nodes=3, clc_period=50.0, total_time=145.0, protocol=protocol,
            app_factory=scripted_sender_factory({
                # dependencies in both directions, captured by the first
                # timer round (t ~ 50); the second one (t ~ 100) is crashed
                NodeId(0, 2): [(5.0, NodeId(1, 1), 256), (125.0, NodeId(1, 2), 256)],
                NodeId(1, 1): [(8.0, NodeId(0, 2), 256), (130.0, NodeId(0, 1), 256)],
            }),
        )
        oracle = attach_oracle(fed)
        fed.start()
        fed.sim.run(until=90.0)
        leader = fed.node(NodeId(0, 0))
        round_ = leader.agent.round
        step_until(fed, lambda: round_.collecting and fed.node(bystander).agent.frozen)
        crashed_at = fed.sim.now
        assert crashed_at < 120.0
        # a send caught inside the window the crash is about to strand
        fed.node(bystander).send_app(NodeId(1, 0), 512)
        assert fed.node(bystander).agent.queued_out
        fed.inject_failure(victim)

        detection = crashed_at + fed.timers.failure_detection_delay
        fed.sim.run(until=detection - 0.01)
        assert round_.collecting, "the round must stall on the dead node's ack"
        assert leader.agent.frozen
        fed.sim.run(until=detection + 0.01)
        assert not round_.collecting, "the rollback must abort the round"

        fed.sim.run(until=140.0)  # recovered; the next timer round is not due yet
        assert fed.node(victim).up
        for cluster in fed.clusters:
            for node in cluster.nodes:
                assert not node.agent.frozen, f"{node.id} still frozen"
                assert node.agent.queued_out == [], f"{node.id} strands queued sends"
        fed.sim.run(until=145.0)
        report = assert_consistent(fed, oracle)
        # the pre-round exchange survives the rollback, the post-recovery one ran
        assert report.delivered == 4 and report.erasures >= 1

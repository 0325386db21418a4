"""Protocol tests: the communication-induced layer (§3.2).

A CLC is forced in the receiver's cluster iff the piggybacked SN is greater
than the receiver's DDV entry for the sender's cluster; the message is
delivered only after the forced CLC commits, and acknowledged with the
receiver's SN + 1 at arrival.
"""

from repro.app.process import scripted_sender_factory
from repro.core.clc import CheckpointCause
from repro.network.message import NodeId
from tests.conftest import Mailbox, make_federation


def scripted_fed(scripts, n_clusters=2, nodes=2, total_time=200.0, **kw):
    fed = make_federation(
        n_clusters=n_clusters,
        nodes=nodes,
        clc_period=None,
        total_time=total_time,
        app_factory=scripted_sender_factory(scripts),
        **kw,
    )
    return fed


class TestForceDecision:
    def test_first_message_forces(self):
        """SN 1 > DDV entry 0: forced CLC before delivery."""
        fed = scripted_fed({NodeId(0, 0): [(10.0, NodeId(1, 0), 100)]})
        results = fed.run()
        assert results.clc_counts(1)["forced"] == 1
        cs = fed.protocol.cluster_states[1]
        assert cs.ddv[0] == 1
        assert cs.sn == 2
        assert cs.store.last().cause is CheckpointCause.FORCED

    def test_second_message_same_sn_does_not_force(self):
        """Fig. 4 / §4: m2 with an already-seen SN is delivered directly."""
        fed = scripted_fed({
            NodeId(0, 0): [
                (10.0, NodeId(1, 0), 100),
                (20.0, NodeId(1, 0), 100),
            ],
        })
        results = fed.run()
        assert results.clc_counts(1)["forced"] == 1  # only m1 forced
        assert len(fed.protocol.cluster_states[1].delivered_ids) == 2

    def test_new_sender_checkpoint_forces_again(self):
        """A CLC at the sender between two sends re-arms the force."""
        fed = scripted_fed({
            NodeId(0, 0): [
                (10.0, NodeId(1, 0), 100),
                (40.0, NodeId(1, 0), 100),
            ],
        })
        fed.start()
        fed.sim.schedule_at(25.0, fed.protocol.request_checkpoint, 0)
        fed.sim.run(until=200.0)
        assert fed.results().clc_counts(1)["forced"] == 2
        assert fed.protocol.cluster_states[1].ddv[0] == 2

    def test_message_delivered_after_forced_commit(self):
        fed = scripted_fed({NodeId(0, 0): [(10.0, NodeId(1, 0), 100)]})
        mailbox = Mailbox()
        fed.start()
        fed.node(NodeId(1, 0)).app_sink = mailbox
        fed.sim.run(until=200.0)
        assert len(mailbox) == 1
        deliver_time = None
        commit = fed.tracer.first("clc_commit", cluster=1, sn=2)
        delivered = fed.tracer.first("inter_delivered", cluster=1)
        assert commit is not None and delivered is not None
        assert delivered.time >= commit.time

    def test_intra_cluster_message_never_forces(self):
        fed = scripted_fed({NodeId(0, 0): [(10.0, NodeId(0, 1), 100)]})
        results = fed.run()
        assert results.clc_counts(0)["forced"] == 0
        assert results.app_messages(0, 0) == 1

    def test_ddv_tracks_only_received_from(self):
        """DDV entries for clusters never heard from stay 0."""
        fed = scripted_fed(
            {NodeId(0, 0): [(10.0, NodeId(1, 0), 100)]},
            n_clusters=3,
        )
        fed.run()
        cs2 = fed.protocol.cluster_states[2]
        assert list(cs2.ddv) == [0, 0, 1]


class TestAcknowledgements:
    def test_forced_ack_is_sn_plus_one(self):
        """§4: "inter cluster messages are acknowledged with the local
        SN + 1"."""
        fed = scripted_fed({NodeId(0, 0): [(10.0, NodeId(1, 0), 100)]})
        fed.run()
        entries = list(fed.protocol.cluster_states[0].sent_log)
        assert len(entries) == 1
        assert entries[0].ack_sn == 2  # receiver SN was 1 at arrival

    def test_unforced_ack_is_sn_plus_one_too(self):
        fed = scripted_fed({
            NodeId(0, 0): [
                (10.0, NodeId(1, 0), 100),
                (20.0, NodeId(1, 0), 100),
            ],
        })
        fed.run()
        entries = sorted(
            fed.protocol.cluster_states[0].sent_log, key=lambda e: e.msg.msg_id
        )
        assert [e.ack_sn for e in entries] == [2, 3]

    def test_every_send_logged(self):
        """§3.3: every inter-cluster message is optimistically logged."""
        fed = scripted_fed({
            NodeId(0, 0): [(10.0, NodeId(1, 0), 100)],
            NodeId(1, 1): [(30.0, NodeId(0, 1), 100)],
        })
        fed.run()
        assert len(fed.protocol.cluster_states[0].sent_log) == 1
        assert len(fed.protocol.cluster_states[1].sent_log) == 1

    def test_send_sn_recorded(self):
        fed = scripted_fed({NodeId(0, 0): [(10.0, NodeId(1, 0), 100)]})
        fed.run()
        entry = next(iter(fed.protocol.cluster_states[0].sent_log))
        assert entry.send_sn == 1
        assert entry.dest_cluster == 1


class TestPiggybackModes:
    def test_sn_mode_piggybacks_sn(self):
        fed = scripted_fed({NodeId(0, 0): [(10.0, NodeId(1, 0), 100)]})
        fed.run()
        entry = next(iter(fed.protocol.cluster_states[0].sent_log))
        assert entry.msg.piggyback.sn == 1
        assert entry.msg.piggyback.ddv is None

    def test_ddv_mode_piggybacks_vector(self):
        fed = scripted_fed(
            {NodeId(0, 0): [(10.0, NodeId(1, 0), 100)]},
            protocol_options={"mode": "ddv"},
        )
        fed.run()
        entry = next(iter(fed.protocol.cluster_states[0].sent_log))
        assert entry.msg.piggyback.ddv == (1, 0)

    def test_transitive_dependency_learned(self):
        """c0 -> c1 -> c2 in DDV mode: c2 learns c0's SN through c1, so a
        later direct c0 -> c2 message with the same SN does not force."""
        fed = scripted_fed(
            {
                NodeId(0, 0): [
                    (10.0, NodeId(1, 0), 100),
                    (60.0, NodeId(2, 0), 100),   # direct skip message
                ],
                NodeId(1, 0): [(40.0, NodeId(2, 0), 100)],
            },
            n_clusters=3,
            protocol_options={"mode": "ddv"},
        )
        results = fed.run()
        cs2 = fed.protocol.cluster_states[2]
        assert cs2.ddv[0] == 1          # learned transitively AND directly
        # c2 forced once for the c1 message (which carried c0's entry);
        # the direct c0 message found ddv[0] already >= 1 -> no new force.
        assert results.clc_counts(2)["forced"] == 1

    def test_sn_mode_forces_on_direct_after_indirect(self):
        """Same scenario in SN mode: the direct message DOES force."""
        fed = scripted_fed(
            {
                NodeId(0, 0): [
                    (10.0, NodeId(1, 0), 100),
                    (60.0, NodeId(2, 0), 100),
                ],
                NodeId(1, 0): [(40.0, NodeId(2, 0), 100)],
            },
            n_clusters=3,
            protocol_options={"mode": "sn"},
        )
        results = fed.run()
        assert results.clc_counts(2)["forced"] == 2

    def test_always_mode_forces_every_message(self):
        fed = scripted_fed(
            {
                NodeId(0, 0): [
                    (10.0, NodeId(1, 0), 100),
                    (20.0, NodeId(1, 0), 100),
                    (30.0, NodeId(1, 0), 100),
                ],
            },
            protocol_options={"mode": "always"},
        )
        results = fed.run()
        assert results.clc_counts(1)["forced"] == 3


class TestDeliveryBookkeeping:
    def test_delivered_ids_grow(self):
        fed = scripted_fed({
            NodeId(0, 0): [(10.0, NodeId(1, 0), 100), (20.0, NodeId(1, 0), 100)],
        })
        fed.run()
        assert len(fed.protocol.cluster_states[1].delivered_ids) == 2

    def test_duplicate_delivery_suppressed(self):
        fed = scripted_fed({NodeId(0, 0): [(10.0, NodeId(1, 0), 100)]})
        mailbox = Mailbox()
        fed.start()
        fed.node(NodeId(1, 0)).app_sink = mailbox
        fed.sim.run(until=100.0)
        # replay the logged message although nothing failed
        entry = next(iter(fed.protocol.cluster_states[0].sent_log))
        fed.fabric.send(entry.msg.clone_for_replay())
        fed.sim.run(until=200.0)
        assert len(mailbox) == 1  # not delivered twice
        assert fed.results().counter("hc3i/duplicates") == 1

    def test_clc_snapshot_contains_queued_message(self):
        """The forced CLC's queue snapshot holds the pending message."""
        fed = scripted_fed({NodeId(0, 0): [(10.0, NodeId(1, 0), 100)]})
        fed.run()
        cs = fed.protocol.cluster_states[1]
        forced_record = cs.store.records[-1]
        assert forced_record.cause is CheckpointCause.FORCED
        queued_ids = [entry.msg.msg_id for _n, entry in forced_record.queued]
        sent_id = next(iter(fed.protocol.cluster_states[0].sent_log)).msg.msg_id
        assert queued_ids == [sent_id]
        # but the delivery itself is NOT in the record's delivered set
        assert sent_id not in forced_record.delivered_ids

"""Unit tests for HC3I internals: piggyback, ghost cuts, options, buffering."""

import pytest

from repro.core.hc3i import Hc3iClusterState, Hc3iOptions, Piggyback
from repro.network.message import Message, MessageKind, NodeId
from tests.conftest import make_federation


class TestPiggyback:
    def test_entry_for_sn_mode(self):
        p = Piggyback(sn=5, epoch=0)
        assert p.entry_for(0) == 5
        assert p.entry_for(3) == 5  # SN mode: same value for any cluster

    def test_entry_for_ddv_mode(self):
        p = Piggyback(sn=5, epoch=0, ddv=(5, 2, 7))
        assert p.entry_for(0) == 5
        assert p.entry_for(1) == 2
        assert p.entry_for(2) == 7

    def test_immutable(self):
        p = Piggyback(sn=1, epoch=0)
        with pytest.raises(AttributeError):
            p.sn = 2  # type: ignore[misc]


class TestGhostCuts:
    def make_state(self):
        return Hc3iClusterState(index=0, n_clusters=3)

    def test_no_cuts_nothing_is_ghost(self):
        cs = self.make_state()
        assert not cs.is_ghost(1, Piggyback(sn=5, epoch=0))

    def test_message_from_erased_epoch_is_ghost(self):
        cs = self.make_state()
        cs.record_alert(faulty=1, alert_sn=3, new_epoch=1)
        # sent in epoch 0 with SN >= 3: the rollback to 3 erased it
        assert cs.is_ghost(1, Piggyback(sn=3, epoch=0))
        assert cs.is_ghost(1, Piggyback(sn=7, epoch=0))

    def test_message_below_cut_survives(self):
        cs = self.make_state()
        cs.record_alert(faulty=1, alert_sn=3, new_epoch=1)
        assert not cs.is_ghost(1, Piggyback(sn=2, epoch=0))

    def test_new_epoch_message_not_ghost(self):
        cs = self.make_state()
        cs.record_alert(faulty=1, alert_sn=3, new_epoch=1)
        # sent after the rollback (epoch 1): valid whatever the SN
        assert not cs.is_ghost(1, Piggyback(sn=5, epoch=1))

    def test_multiple_rollbacks_accumulate_cuts(self):
        cs = self.make_state()
        cs.record_alert(faulty=1, alert_sn=5, new_epoch=1)
        cs.record_alert(faulty=1, alert_sn=2, new_epoch=2)
        # epoch-1 send with SN >= 2 erased by the second rollback
        assert cs.is_ghost(1, Piggyback(sn=2, epoch=1))
        assert not cs.is_ghost(1, Piggyback(sn=1, epoch=1))
        # epoch-0 send erased by either cut
        assert cs.is_ghost(1, Piggyback(sn=2, epoch=0))

    def test_stale_alert_epoch_ignored(self):
        cs = self.make_state()
        cs.record_alert(faulty=1, alert_sn=3, new_epoch=2)
        cs.record_alert(faulty=1, alert_sn=1, new_epoch=1)  # stale, ignored
        assert cs.known_epochs[1] == 2
        assert len(cs.ghost_cuts[1]) == 1

    def test_cuts_per_source_cluster(self):
        cs = self.make_state()
        cs.record_alert(faulty=1, alert_sn=3, new_epoch=1)
        assert not cs.is_ghost(2, Piggyback(sn=5, epoch=0))

    def test_ddv_mode_uses_source_entry(self):
        cs = self.make_state()
        cs.record_alert(faulty=1, alert_sn=3, new_epoch=1)
        # sender 1's own entry is 2 < 3: survives even though another
        # entry is large
        assert not cs.is_ghost(1, Piggyback(sn=2, epoch=0, ddv=(9, 2, 9)))
        assert cs.is_ghost(1, Piggyback(sn=3, epoch=0, ddv=(0, 3, 0)))


class TestOptions:
    def test_defaults_match_paper(self):
        opts = Hc3iOptions.from_dict({})
        assert opts.mode == "sn"
        assert opts.replay_enabled
        assert opts.replication_degree == 1
        assert not opts.incremental

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            Hc3iOptions.from_dict({"mode": "telepathic"})

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            Hc3iOptions.from_dict({"replication_degree": -1})

    def test_invalid_gc_mode(self):
        with pytest.raises(ValueError, match="'gc_mode'"):
            Hc3iOptions.from_dict({"gc_mode": "quantum"})

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            Hc3iOptions.from_dict({"incremental_fraction": 1.5})

    def test_unknown_protocol_name(self):
        with pytest.raises(ValueError):
            make_federation(protocol="no-such-protocol")


class TestDownNodeBuffering:
    def build(self):
        fed = make_federation(nodes=2, clc_period=None, total_time=100.0)
        fed.start()
        fed.sim.run(until=5.0)
        return fed

    def test_inter_cluster_app_buffered(self):
        fed = self.build()
        node = fed.node(NodeId(1, 0))
        node.fail()
        msg = Message(
            src=NodeId(0, 0), dst=NodeId(1, 0), kind=MessageKind.APP, size=10,
            piggyback=Piggyback(sn=1, epoch=0),
        )
        node._on_fabric_delivery(msg)
        assert node._held == [msg]

    def test_intra_cluster_app_dropped(self):
        fed = self.build()
        node = fed.node(NodeId(1, 0))
        node.fail()
        msg = Message(
            src=NodeId(1, 1), dst=NodeId(1, 0), kind=MessageKind.APP, size=10
        )
        node._on_fabric_delivery(msg)
        assert node._held == []

    def test_2pc_control_dropped(self):
        fed = self.build()
        node = fed.node(NodeId(1, 0))
        node.fail()
        for kind in (
            MessageKind.CLC_REQUEST,
            MessageKind.CLC_COMMIT,
            MessageKind.CLC_INITIATE,
            MessageKind.REPLICA,
        ):
            node._on_fabric_delivery(
                Message(src=NodeId(1, 1), dst=NodeId(1, 0), kind=kind, size=10)
            )
        assert node._held == []

    def test_alert_and_ack_buffered(self):
        fed = self.build()
        node = fed.node(NodeId(1, 0))
        node.fail()
        alert = Message(
            src=NodeId(0, 0), dst=NodeId(1, 0), kind=MessageKind.ALERT, size=10,
            payload={"faulty": 0, "sn": 1, "epoch": 1},
        )
        ack = Message(
            src=NodeId(0, 0), dst=NodeId(1, 0), kind=MessageKind.INTER_ACK,
            size=10, payload={"msg_id": 1, "ack_sn": 2},
        )
        node._on_fabric_delivery(alert)
        node._on_fabric_delivery(ack)
        assert len(node._held) == 2

    def test_buffered_messages_flushed_on_recover(self):
        fed = self.build()
        node = fed.node(NodeId(1, 0))
        node.fail()
        msg = Message(
            src=NodeId(0, 0), dst=NodeId(1, 0), kind=MessageKind.APP, size=10,
            piggyback=Piggyback(sn=1, epoch=0),
        )
        node._on_fabric_delivery(msg)
        node.recover()
        fed.sim.run(until=50.0)
        cs = fed.protocol.cluster_states[1]
        assert msg.msg_id in cs.delivered_ids


class TestClusterSummary:
    def test_summary_fields(self):
        fed = make_federation(clc_period=50.0, total_time=300.0, chatty=True)
        fed.run()
        summary = fed.protocol.cluster_summary(0)
        for key in (
            "sn", "ddv", "clc_initial", "clc_unforced", "clc_forced",
            "clc_total", "clc_stored", "log_entries", "log_bytes",
            "log_max_entries", "rollback_epoch",
        ):
            assert key in summary
        assert summary["clc_total"] == (
            summary["clc_initial"] + summary["clc_unforced"] + summary["clc_forced"]
        )

    def test_results_accessors(self):
        fed = make_federation(clc_period=50.0, total_time=300.0, chatty=True)
        results = fed.run()
        assert results.stored_clcs(0) == results.clusters[0]["clc_stored"]
        assert results.counter("nonexistent", default=7) == 7
        assert results.clusters[0]["states_per_node"] == 2 * results.stored_clcs(0)

"""Unit tests for the protocol data structures: DDV, CLC store, message log."""

import itertools

import pytest

from repro.core.clc import CheckpointCause, CheckpointRecord, ClcStore
from repro.core.ddv import DDV
from repro.core.msglog import MessageLog
from repro.network.message import Message, MessageKind, NodeId


class TestDDV:
    def test_zero(self):
        d = DDV.zero(3)
        assert list(d) == [0, 0, 0]
        assert len(d) == 3

    def test_zero_invalid(self):
        with pytest.raises(ValueError):
            DDV.zero(0)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            DDV([1, -1])

    def test_equality_with_tuple(self):
        assert DDV([1, 2]) == (1, 2)
        assert DDV([1, 2]) == DDV((1, 2))
        assert DDV([1, 2]) != DDV([2, 1])

    def test_hashable(self):
        assert len({DDV([1, 2]), DDV([1, 2])}) == 1

    def test_with_entry(self):
        d = DDV([1, 2, 3]).with_entry(1, 9)
        assert d == (1, 9, 3)

    def test_merged_takes_maxima(self):
        d = DDV([5, 2, 3]).merged({0: 1, 1: 7})
        assert d == (5, 7, 3)  # entry 0 not lowered

    def test_dominates(self):
        assert DDV([2, 3]).dominates(DDV([1, 3]))
        assert not DDV([2, 3]).dominates(DDV([3, 3]))

    def test_immutable(self):
        d = DDV([1, 2])
        with pytest.raises(TypeError):
            d[0] = 5  # type: ignore[index]


def record(cluster, sn, ddv, cause=CheckpointCause.TIMER, time=0.0):
    return CheckpointRecord(
        sn=sn, ddv=DDV(ddv), time=time, cause=cause, cluster=cluster
    )


class TestCheckpointRecord:
    def test_own_entry_invariant(self):
        with pytest.raises(ValueError):
            record(0, 2, [1, 0])  # ddv[0] != sn

    def test_cause_flags(self):
        assert CheckpointCause.FORCED.forced
        assert not CheckpointCause.TIMER.forced

    def test_forced_property(self):
        assert record(0, 1, [1, 0], CheckpointCause.FORCED).forced


class TestClcStore:
    def make_store(self):
        store = ClcStore(0)
        store.add(record(0, 1, [1, 0]))
        store.add(record(0, 2, [2, 0]))
        store.add(record(0, 3, [3, 2]))
        store.add(record(0, 4, [4, 2]))
        return store

    def test_add_and_last(self):
        store = self.make_store()
        assert len(store) == 4
        assert store.last().sn == 4
        assert store.sns() == [1, 2, 3, 4]

    def test_add_wrong_cluster_rejected(self):
        store = ClcStore(0)
        with pytest.raises(ValueError):
            store.add(record(1, 1, [0, 1]))

    def test_non_increasing_sn_rejected(self):
        store = self.make_store()
        with pytest.raises(ValueError):
            store.add(record(0, 4, [4, 2]))

    def test_empty_last_raises(self):
        with pytest.raises(LookupError):
            ClcStore(0).last()

    def test_rollback_target_oldest_with_entry(self):
        store = self.make_store()
        # alert from cluster 1 with SN 1: oldest CLC with ddv[1] >= 1 is sn 3
        target = store.find_rollback_target(faulty=1, alert_sn=1)
        assert target is not None and target.sn == 3

    def test_rollback_target_none_when_no_dependency(self):
        store = self.make_store()
        assert store.find_rollback_target(faulty=1, alert_sn=3) is None

    def test_discard_after(self):
        store = self.make_store()
        target = store.records[1]  # sn 2
        removed = store.discard_after(target)
        assert removed == 2
        assert store.sns() == [1, 2]
        assert store.discarded_by_rollback == 2

    def test_discard_after_foreign_record_raises(self):
        store = self.make_store()
        with pytest.raises(LookupError):
            store.discard_after(record(0, 99, [99, 0]))

    def test_prune_removes_older(self):
        store = self.make_store()
        removed = store.prune(min_sn=3)
        assert removed == 2
        assert store.sns() == [3, 4]
        assert store.removed_by_gc == 2

    def test_prune_never_removes_newest(self):
        store = self.make_store()
        removed = store.prune(min_sn=100)
        assert removed == 3
        assert store.sns() == [4]

    def test_prune_noop_when_bound_low(self):
        store = self.make_store()
        assert store.prune(min_sn=0) == 0
        assert len(store) == 4

    def test_prune_single_record_kept(self):
        store = ClcStore(0)
        store.add(record(0, 1, [1, 0]))
        assert store.prune(min_sn=10) == 0
        assert len(store) == 1

    def test_ddv_list(self):
        store = self.make_store()
        assert store.ddv_list()[0] == (1, (1, 0))
        assert store.ddv_list()[-1] == (4, (4, 2))


_ids = itertools.count(1)  # the log keys entries by msg_id


def make_msg(src=NodeId(0, 0), dst=NodeId(1, 0), size=100):
    return Message(src, dst, MessageKind.APP, size, msg_id=next(_ids))


class TestMessageLog:
    def test_add_and_ack(self):
        log = MessageLog(0)
        msg = make_msg()
        entry = log.add(msg, send_sn=3)
        assert len(log) == 1
        assert entry.ack_sn is None
        assert log.ack(msg.msg_id, 5)
        assert entry.ack_sn == 5

    def test_ack_unknown_returns_false(self):
        assert not MessageLog(0).ack(12345, 1)

    def test_intra_cluster_rejected(self):
        with pytest.raises(ValueError):
            MessageLog(0).add(make_msg(dst=NodeId(0, 1)), send_sn=1)

    def test_wrong_cluster_rejected(self):
        with pytest.raises(ValueError):
            MessageLog(1).add(make_msg(), send_sn=1)

    def test_replay_rule_matches_paper(self):
        """§3.4: resend iff acked with SN > alert SN or not acked at all."""
        log = MessageLog(0)
        m_old = make_msg()
        m_lost = make_msg()
        m_unacked = make_msg()
        log.add(m_old, send_sn=1)
        log.add(m_lost, send_sn=2)
        log.add(m_unacked, send_sn=3)
        log.ack(m_old.msg_id, 2)
        log.ack(m_lost.msg_id, 6)
        to_replay = log.entries_to_replay(dest_cluster=1, alert_sn=4)
        ids = {e.msg.msg_id for e in to_replay}
        assert ids == {m_lost.msg_id, m_unacked.msg_id}

    def test_replay_filters_by_destination(self):
        log = MessageLog(0)
        to_1 = make_msg(dst=NodeId(1, 0))
        to_2 = make_msg(dst=NodeId(2, 0))
        log.add(to_1, send_sn=1)
        log.add(to_2, send_sn=1)
        assert {e.msg.msg_id for e in log.entries_to_replay(2, alert_sn=0)} == {
            to_2.msg_id
        }

    def test_drop_sent_after_rollback(self):
        log = MessageLog(0)
        keep = make_msg()
        drop = make_msg()
        log.add(keep, send_sn=2)
        log.add(drop, send_sn=3)
        assert log.drop_sent_after(restored_sn=3) == 1
        assert log.get(keep.msg_id) is not None
        assert log.get(drop.msg_id) is None
        assert log.dropped_by_rollback == 1

    def test_gc_prune_rule(self):
        """§3.5: remove entries acked below the receiver's smallest SN."""
        log = MessageLog(0)
        old = make_msg()
        recent = make_msg()
        unacked = make_msg()
        log.add(old, send_sn=1)
        log.add(recent, send_sn=2)
        log.add(unacked, send_sn=3)
        log.ack(old.msg_id, 2)
        log.ack(recent.msg_id, 7)
        removed = log.prune(min_sns=[0, 5])  # receiver cluster 1 bound = 5
        assert removed == 1
        assert log.get(old.msg_id) is None
        assert log.get(recent.msg_id) is not None
        assert log.get(unacked.msg_id) is not None
        assert log.removed_by_gc == 1

    def test_gc_keeps_ack_equal_to_bound(self):
        """The paper prunes strictly below the bound (conservative)."""
        log = MessageLog(0)
        msg = make_msg()
        log.add(msg, send_sn=1)
        log.ack(msg.msg_id, 5)
        assert log.prune(min_sns=[0, 5]) == 0
        assert len(log) == 1

    def test_bytes_and_max_entries(self):
        log = MessageLog(0)
        log.add(make_msg(size=100), send_sn=1)
        log.add(make_msg(size=250), send_sn=1)
        assert log.bytes == 350
        assert log.max_entries == 2
        log.drop_sent_after(0)
        assert log.max_entries == 2  # high-water mark persists

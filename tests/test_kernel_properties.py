"""Property-based tests of the discrete-event kernel.

Hypothesis drives random interleavings of ``schedule`` / ``schedule_at`` /
``schedule_many`` / ``cancel`` / ``stop`` / ``run`` / ``step`` against a
simple reference model, asserting the kernel's load-bearing invariants:

* dispatch time is monotonically non-decreasing,
* same-instant events fire in scheduling order (FIFO by sequence number),
* ``pending`` / ``processed`` accounting is exact at every observation
  point (this is what pins the O(1) live-counter + compaction bookkeeping),
* two identically-seeded runs produce identical dispatch digests,
* ``schedule_many`` and ``reschedule`` are dispatch-stream-equivalent to
  plain ``schedule`` loops.

The reference model is deliberately naive (sorted list of records); the
kernel's lazy cancellation, compaction sweeps and entry reuse must be
invisible next to it.
"""

from __future__ import annotations

import pickle
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator, event_pending
from repro.sim.trace_digest import TraceDigest

# -- operation grammar -----------------------------------------------------

delays = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, width=32)

ops = st.one_of(
    st.tuples(st.just("schedule"), delays),
    st.tuples(st.just("schedule_at_offset"), delays),
    st.tuples(st.just("schedule_many"), st.lists(delays, min_size=0, max_size=4)),
    st.tuples(st.just("cancel"), st.integers(min_value=0)),
    st.tuples(st.just("cancel_fired"), st.integers(min_value=0)),
    st.tuples(st.just("run_for"), delays),
    st.just(("step",)),
    st.tuples(st.just("stop_after"), delays),
)

op_lists = st.lists(ops, min_size=1, max_size=60)


class Model:
    """Reference bookkeeping: every scheduled record, with its fate."""

    def __init__(self):
        self.records = []  # [time, scheduled_idx, cancelled, fired]

    def add(self, time: float) -> int:
        self.records.append([time, len(self.records), False, False])
        return len(self.records) - 1

    def cancel(self, idx: int) -> None:
        rec = self.records[idx]
        if not rec[3]:  # cancelling a fired record is a no-op
            rec[2] = True

    def fire_up_to(self, horizon: float, limit: int = -1) -> int:
        """Fire eligible records in (time, scheduled order); returns count."""
        fired = 0
        while limit < 0 or fired < limit:
            candidates = [
                r for r in self.records if not r[2] and not r[3] and r[0] <= horizon
            ]
            if not candidates:
                break
            rec = min(candidates, key=lambda r: (r[0], r[1]))
            rec[3] = True
            fired += 1
        return fired

    @property
    def pending(self) -> int:
        return sum(1 for r in self.records if not r[2] and not r[3])

    @property
    def processed(self) -> int:
        return sum(1 for r in self.records if r[3])


def apply_ops(op_list, sim: Simulator):
    """Drive ``sim`` and the reference model through one op sequence.

    Returns ``(model, dispatched, stops_fired)``: the reference model, the
    observed ``(time, tag)`` stream from inside the callbacks, and how many
    ``sim.stop`` helper events fired (kernel events with no model record).
    """
    model = Model()
    handles = []  # kernel event handles, same index as model records
    dispatched = []
    stops_fired = 0

    def make_cb(idx):
        def cb():
            dispatched.append((sim.now, idx))
        return cb

    for op in op_list:
        name = op[0]
        if name == "schedule":
            idx = model.add(sim.now + op[1])
            handles.append(sim.schedule(op[1], make_cb(idx)))
        elif name == "schedule_at_offset":
            idx = model.add(sim.now + op[1])
            handles.append(sim.schedule_at(sim.now + op[1], make_cb(idx)))
        elif name == "schedule_many":
            idxs = [model.add(sim.now + d) for d in op[1]]
            handles.extend(
                sim.schedule_many([(d, make_cb(i)) for d, i in zip(op[1], idxs)])
            )
        elif name == "cancel":
            if handles:
                k = op[1] % len(handles)
                model.cancel(k)
                sim.cancel(handles[k])
        elif name == "cancel_fired":
            # aim specifically at already-fired records: must be a no-op
            fired = [i for i, r in enumerate(model.records) if r[3]]
            if fired:
                k = fired[op[1] % len(fired)]
                model.cancel(k)
                sim.cancel(handles[k])
        elif name == "run_for":
            horizon = sim.now + op[1]
            sim.run(until=horizon)
            model.fire_up_to(horizon)
        elif name == "step":
            before = sim.now
            progressed = sim.step()
            assert progressed == (model.fire_up_to(float("inf"), limit=1) == 1)
            assert sim.now >= before
        elif name == "stop_after":
            horizon = sim.now + op[1]
            stop_ev = sim.schedule(op[1], sim.stop)
            sim.run()
            # everything up to (and including) the stop instant fires; the
            # stop callback itself is a dispatched kernel event with no
            # model record (it was scheduled last, so same-instant records
            # all precede it)
            model.fire_up_to(horizon)
            stops_fired += 1
            assert sim.now == horizon
            sim.cancel(stop_ev)  # already fired: must be a no-op
        # accounting must be exact after *every* operation
        assert sim.pending == model.pending, (name, op)
    return model, dispatched, stops_fired


class TestRandomInterleavings:
    @settings(max_examples=120, deadline=None)
    @given(op_lists)
    def test_kernel_matches_reference_model(self, op_list):
        sim = Simulator()
        model, dispatched, stops_fired = apply_ops(op_list, sim)
        # drain whatever is left so every surviving record fires
        sim.run()
        model.fire_up_to(float("inf"))

        assert sim.pending == model.pending == 0
        # every model record that fired produced exactly one callback, plus
        # one kernel event per `stop_after` helper (no model record)
        assert model.processed == len(dispatched)
        assert sim.processed == len(dispatched) + stops_fired

        # monotonic time
        times = [t for t, _ in dispatched]
        assert times == sorted(times)

        # exactly the non-cancelled records fired, in (time, schedule) order
        expected = sorted((r[0], r[1]) for r in model.records if r[3])
        observed = sorted((t, i) for t, i in dispatched)
        assert observed == expected

    @settings(max_examples=60, deadline=None)
    @given(op_lists)
    def test_fifo_ties_break_by_schedule_order(self, op_list):
        sim = Simulator()
        _, dispatched, _ = apply_ops(op_list, sim)
        sim.run()
        by_time: dict = {}
        for t, idx in dispatched:
            by_time.setdefault(t, []).append(idx)
        for t, idxs in by_time.items():
            assert idxs == sorted(idxs), f"tie at t={t} broke schedule order"

    @settings(max_examples=50, deadline=None)
    @given(op_lists)
    def test_identically_seeded_runs_have_identical_digests(self, op_list):
        digests = []
        for _ in range(2):
            sim = Simulator()
            digest = TraceDigest()
            sim.attach_digest(digest)
            apply_ops(op_list, sim)
            sim.run()
            digests.append((digest.hexdigest(), digest.events))
        assert digests[0] == digests[1]


class TestBatchEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(delays, min_size=1, max_size=20))
    def test_schedule_many_equals_schedule_loop(self, batch):
        streams = []
        for use_many in (False, True):
            sim = Simulator()
            digest = TraceDigest()
            sim.attach_digest(digest)
            order = []
            if use_many:
                sim.schedule_many([(d, order.append, (i,)) for i, d in enumerate(batch)])
            else:
                for i, d in enumerate(batch):
                    sim.schedule(d, order.append, i)
            sim.run()
            streams.append((digest.hexdigest(), order))
        assert streams[0] == streams[1]

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.integers(min_value=1, max_value=20),
    )
    def test_reschedule_reuse_equals_fresh_schedules(self, period, firings):
        """A self-rearming timer via reschedule == one via plain schedule."""

        def drive(use_reschedule):
            sim = Simulator()
            digest = TraceDigest()
            sim.attach_digest(digest)
            count = 0
            entry = None

            def fire():
                nonlocal count, entry
                count += 1
                if count < firings:
                    if use_reschedule:
                        entry = sim.reschedule(entry, period, fire)
                    else:
                        entry = sim.schedule(period, fire)

            entry = sim.schedule(period, fire)
            sim.run()
            return digest.hexdigest(), count, sim.processed

        assert drive(True) == drive(False)


class SnapshotRecorder:
    """Picklable callback target (closures cannot cross a snapshot).

    Bound methods pickle by (instance, method name), so scheduling
    ``rec.hit`` gives the kernel queue entries that survive a
    ``pickle`` round-trip -- the same trick the federation snapshot
    machinery relies on.
    """

    def __init__(self) -> None:
        self.seen: list = []

    def hit(self, idx: int) -> None:
        self.seen.append(idx)


snapshot_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), delays),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("run_for"), delays),
        st.just(("step",)),
    ),
    min_size=1,
    max_size=40,
)


def apply_picklable_ops(op_list, sim, rec, handles, model):
    """Drive ``sim`` with snapshot-safe callbacks, mirrored in ``model``."""
    for op in op_list:
        name = op[0]
        if name == "schedule":
            idx = model.add(sim.now + op[1])
            handles.append(sim.schedule(op[1], rec.hit, idx))
        elif name == "cancel":
            if handles:
                k = op[1] % len(handles)
                model.cancel(k)
                sim.cancel(handles[k])
        elif name == "run_for":
            horizon = sim.now + op[1]
            sim.run(until=horizon)
            model.fire_up_to(horizon)
        elif name == "step":
            progressed = sim.step()
            assert progressed == (model.fire_up_to(inf, limit=1) == 1)
        # accounting must be exact after *every* operation, and the
        # cancelled-corpse counter can never exceed the physical heap
        assert sim.pending == model.pending, (name, op)
        assert 0 <= sim._cancelled_in_heap <= len(sim._queue)


class TestSnapshotAccounting:
    """The snapshot accounting audit, pinned as properties.

    ``step()`` pops cancelled corpses off the heap top and moves
    ``_cancelled_in_heap``; a snapshot taken with corpses still in the
    heap must round-trip that accounting exactly, and ``pending`` must
    stay exact across ``__getstate__`` / ``__setstate__``.
    """

    @settings(max_examples=100, deadline=None)
    @given(snapshot_ops)
    def test_snapshot_before_step_roundtrips_exactly(self, op_list):
        sim = Simulator()
        rec = SnapshotRecorder()
        handles: list = []
        model = Model()
        apply_picklable_ops(op_list, sim, rec, handles, model)

        cancelled_before = sim._cancelled_in_heap
        pending_before = sim.pending
        assert pending_before == model.pending

        sim2, rec2, handles2 = pickle.loads(pickle.dumps((sim, rec, handles)))
        assert sim2._cancelled_in_heap == cancelled_before
        assert sim2.pending == pending_before
        assert sim2.now == sim.now and sim2.processed == sim.processed

        # step both through the same window, then drain both: the restored
        # kernel must dispatch the identical remaining stream
        assert sim.step() == sim2.step()
        assert (sim.now, sim.pending, sim.processed) == (
            sim2.now,
            sim2.pending,
            sim2.processed,
        )
        sim.run()
        sim2.run()
        assert rec2.seen == rec.seen
        assert sim.pending == sim2.pending == 0
        assert sim._cancelled_in_heap == sim2._cancelled_in_heap == 0
        assert sim.processed == sim2.processed

    @settings(max_examples=60, deadline=None)
    @given(snapshot_ops, st.integers(min_value=0))
    def test_restored_handles_alias_the_restored_queue(self, op_list, pick):
        """Event handles pickled alongside the kernel stay live: cancelling
        through a restored handle must move the restored kernel's pending
        count (pickle-memo aliasing, which the federation snapshots lean on)."""
        sim = Simulator()
        rec = SnapshotRecorder()
        handles: list = []
        model = Model()
        apply_picklable_ops(op_list, sim, rec, handles, model)
        sim2, rec2, handles2 = pickle.loads(pickle.dumps((sim, rec, handles)))
        live = [h for h in handles2 if event_pending(h)]
        assert len(live) == sim2.pending
        if live:
            target = live[pick % len(live)]
            before = sim2.pending
            sim2.cancel(target)
            assert sim2.pending == before - 1

    def test_corpse_at_heap_top_survives_snapshot(self):
        """Deterministic pin: cancel the earliest event so a corpse sits at
        the heap top, snapshot, and check the counter round-trips and that
        a restored step() pops the corpse without going negative."""
        sim = Simulator()
        rec = SnapshotRecorder()
        first = sim.schedule(1.0, rec.hit, 0)
        sim.schedule(2.0, rec.hit, 1)
        sim.cancel(first)
        assert sim._cancelled_in_heap == 1 and sim.pending == 1

        sim2, rec2 = pickle.loads(pickle.dumps((sim, rec)))
        assert sim2._cancelled_in_heap == 1 and sim2.pending == 1
        assert sim2.step() and sim2.now == 2.0  # pops the corpse first
        assert sim2._cancelled_in_heap == 0 and sim2.pending == 0
        assert rec2.seen == [1]


class TestCompaction:
    def test_mass_cancel_compacts_and_preserves_behavior(self):
        """Cancelling >1/2 of a big queue sweeps it without changing what
        fires -- and pending stays exact throughout."""
        sim = Simulator()
        seen = []
        events = [sim.schedule(float(i % 97), seen.append, i) for i in range(1000)]
        survivors = []
        for i, ev in enumerate(events):
            if i % 3 == 0:
                survivors.append(i)
            else:
                sim.cancel(ev)
                assert sim.pending == 1000 - (i - len(survivors) + 1)
        # compaction happened: the internal queue holds ~ the live entries
        assert len(sim._queue) < 1000
        assert sim.pending == len(survivors)
        sim.run()
        assert sorted(seen) == survivors
        assert sim.processed == len(survivors)
        # time order was respected
        times = [i % 97 for i in seen]
        assert times == sorted(times)

    def test_digest_unaffected_by_compaction(self):
        def drive(cancel_fraction):
            sim = Simulator()
            digest = TraceDigest()
            sim.attach_digest(digest)
            events = [sim.schedule(float(i % 13), lambda: None) for i in range(500)]
            # cancel the same set either way; fraction only changes whether
            # the sweep triggers (cancel order differs, behavior must not)
            doomed = [ev for i, ev in enumerate(events) if i % 2 == 0]
            if cancel_fraction == "interleaved":
                for ev in doomed:
                    sim.cancel(ev)
            else:
                for ev in reversed(doomed):
                    sim.cancel(ev)
            sim.run()
            return digest.hexdigest(), sim.processed

        assert drive("interleaved") == drive("reversed")

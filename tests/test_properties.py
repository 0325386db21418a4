"""Property-based tests (hypothesis) on the core data structures and the
recovery-line computations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ddv import DDV
from repro.core.recovery_line import (
    GHOST,
    IN_TRANSIT,
    cascade_targets,
    compute_min_sns,
    line_targets,
)
from repro.sim.kernel import Simulator
from repro.sim.stats import Tally


# ----------------------------------------------------------------------
# DDV algebra
# ----------------------------------------------------------------------
entries = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6)


def merge(a, b):
    """Entrywise maximum of two DDVs through ``merged``, the protocol's one merge."""
    return a.merged(dict(enumerate(b)))


@given(entries)
def test_ddv_merge_idempotent(xs):
    d = DDV(xs)
    assert merge(d, d) == d


@given(entries, entries.filter(lambda x: True))
def test_ddv_merge_commutative(xs, ys):
    if len(xs) != len(ys):
        ys = (ys * len(xs))[: len(xs)]
    a, b = DDV(xs), DDV(ys)
    assert merge(a, b) == merge(b, a)


@given(entries)
def test_ddv_merge_dominates_both(xs):
    ys = [v + 1 for v in reversed(xs)]
    a, b = DDV(xs), DDV(ys)
    m = merge(a, b)
    assert m.dominates(a) and m.dominates(b)


@given(entries, st.dictionaries(st.integers(0, 5), st.integers(0, 60), max_size=4))
def test_ddv_merged_updates_never_lower(xs, updates):
    updates = {k % len(xs): v for k, v in updates.items()}
    d = DDV(xs)
    m = d.merged(updates)
    assert m.dominates(d)
    for k, v in updates.items():
        assert m[k] >= v


# ----------------------------------------------------------------------
# simulator event ordering
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=60))
def test_kernel_processes_in_nondecreasing_time(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda t=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40))
def test_tally_mean_matches_reference(values):
    t = Tally("t")
    for v in values:
        t.record(v)
    if values:
        assert abs(t.mean - sum(values) / len(values)) < 1e-6


# ----------------------------------------------------------------------
# recovery-line properties on randomly generated protocol histories
# ----------------------------------------------------------------------
@st.composite
def protocol_history(draw):
    """Random but *valid* per-cluster CLC histories.

    DDV entries are non-decreasing within a cluster; each cluster's own
    entry equals the record SN; cross entries never exceed the SN the peer
    has actually reached at that point (approximated by its final SN).
    """
    n = draw(st.integers(min_value=2, max_value=4))
    lengths = [draw(st.integers(min_value=1, max_value=5)) for _ in range(n)]
    stored = []
    for c in range(n):
        records = []
        cross = [0] * n
        for sn in range(1, lengths[c] + 1):
            for other in range(n):
                if other == c:
                    continue
                bump = draw(st.integers(min_value=0, max_value=2))
                cross[other] = min(cross[other] + bump, max(lengths))
            ddv = list(cross)
            ddv[c] = sn
            records.append((sn, tuple(ddv)))
        stored.append(records)
    current = [records[-1][1] for records in stored]
    return stored, current


@given(protocol_history())
@settings(max_examples=120, deadline=None)
def test_cascade_faulty_cluster_always_rolls_to_last(hist):
    stored, current = hist
    for failed in range(len(stored)):
        targets = cascade_targets(stored, current, failed)
        assert targets[failed] is not None
        assert targets[failed] <= stored[failed][-1][0]


@given(protocol_history())
@settings(max_examples=120, deadline=None)
def test_cascade_targets_are_stored_sns(hist):
    stored, current = hist
    for failed in range(len(stored)):
        targets = cascade_targets(stored, current, failed)
        for c, t in enumerate(targets):
            if t is not None:
                assert t in [sn for sn, _ in stored[c]]


@given(protocol_history())
@settings(max_examples=120, deadline=None)
def test_cascade_consistency_no_surviving_dependency_on_lost_state(hist):
    """After the cascade, no surviving CLC's *delivery-bearing* state
    depends on an erased peer state.

    The restored CLC itself may carry DDV entry == the peer's restored SN:
    the forced CLC at a dependency boundary is stamped *before* the
    delivery, so equality at the restored record is benign.  Any *newer*
    surviving record with an entry above the restored SN would be a real
    dependency on lost state and must not exist -- here "newer" records
    were all discarded, so we check the restored position plus the rule
    that non-rolled-back clusters have current entries below every erased
    range.
    """
    stored, current = hist
    n = len(stored)
    for failed in range(n):
        targets = cascade_targets(stored, current, failed)
        for c in range(n):
            for f in range(n):
                if c == f or targets[f] is None:
                    continue
                erased_above = targets[f]
                if targets[c] is None:
                    # c kept its live state: its current dependency on f
                    # must not reach into f's erased range
                    assert current[c][f] < erased_above
                else:
                    record = next(
                        (sn, ddv) for sn, ddv in stored[c] if sn == targets[c]
                    )
                    # the boundary rule: entry may equal the restored SN
                    # (checkpoint taken before the delivery) but never
                    # exceed it
                    assert record[1][f] <= erased_above or record[1][f] <= current[c][f]


@given(protocol_history())
@settings(max_examples=100, deadline=None)
def test_min_sns_lower_bound_all_scenarios(hist):
    """compute_min_sns is a true lower bound over every failure scenario."""
    stored, current = hist
    mins = compute_min_sns(stored, current)
    n = len(stored)
    for failed in range(n):
        targets = cascade_targets(stored, current, failed)
        for c, t in enumerate(targets):
            if t is not None:
                assert mins[c] <= t


@given(protocol_history())
@settings(max_examples=100, deadline=None)
def test_gc_pruning_preserves_cascade_results(hist):
    """Pruning CLCs below the GC bounds never changes any cascade target."""
    stored, current = hist
    mins = compute_min_sns(stored, current)
    pruned = []
    for c, records in enumerate(stored):
        kept = [(sn, ddv) for sn, ddv in records if sn >= mins[c]]
        if not kept:
            kept = [records[-1]]
        pruned.append(kept)
    for failed in range(len(stored)):
        assert cascade_targets(stored, current, failed) == cascade_targets(
            pruned, current, failed
        )


# ----------------------------------------------------------------------
# domino fixpoint properties
# ----------------------------------------------------------------------
@st.composite
def domino_instance(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    checkpoints = [
        list(range(1, draw(st.integers(min_value=1, max_value=4)) + 1))
        for _ in range(n)
    ]
    n_edges = draw(st.integers(min_value=0, max_value=8))
    edges = []
    for _ in range(n_edges):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        if src == dst:
            continue
        edges.append(
            (
                src,
                draw(st.integers(0, checkpoints[src][-1])),
                dst,
                draw(st.integers(0, checkpoints[dst][-1])),
            )
        )
    failed = draw(st.integers(0, n - 1))
    return checkpoints, edges, failed


#: no sender logs: both inconsistency directions propagate
DOMINO = (GHOST, IN_TRANSIT)
#: sender logs replay in-transit messages: only ghosts propagate
GHOST_ONLY = (GHOST,)


def rescan_line_targets(checkpoints, edges, failed, propagate):
    """Reference fixpoint: rescan every edge until nothing moves.

    The pre-worklist formulation (O(iterations x edges)), kept here as the
    oracle :func:`line_targets` must agree with for every ``propagate``.
    """
    INF = float("inf")
    target = [INF] * len(checkpoints)
    target[failed] = checkpoints[failed][-1]

    def lower(cluster, epoch):
        best = max((n for n in checkpoints[cluster] if n <= epoch), default=0)
        if best < target[cluster]:
            target[cluster] = best
            return True
        return False

    changed = True
    while changed:
        changed = False
        for src, send_epoch, dst, recv_epoch in edges:
            sent_kept = send_epoch < target[src]
            recv_kept = recv_epoch < target[dst]
            if GHOST in propagate and recv_kept and not sent_kept:
                changed |= lower(dst, recv_epoch)
            elif IN_TRANSIT in propagate and sent_kept and not recv_kept:
                changed |= lower(src, send_epoch)
    return [None if t == INF else int(t) for t in target]


@pytest.mark.parametrize("propagate", [DOMINO, GHOST_ONLY], ids=["domino", "ghost-only"])
@given(domino_instance())
@settings(max_examples=150, deadline=None)
def test_line_targets_match_rescan_reference(propagate, inst):
    checkpoints, edges, failed = inst
    assert line_targets(checkpoints, edges, failed, propagate) == rescan_line_targets(
        checkpoints, edges, failed, propagate
    )


@given(domino_instance())
@settings(max_examples=150, deadline=None)
def test_domino_fixpoint_is_consistent(inst):
    """At the fixpoint no message is half-erased."""
    checkpoints, edges, failed = inst
    targets = line_targets(checkpoints, edges, failed, DOMINO)
    INF = float("inf")
    eff = [t if t is not None else INF for t in targets]
    for src, se, dst, re in edges:
        sent_kept = se < eff[src]
        recv_kept = re < eff[dst]
        assert sent_kept == recv_kept


@given(domino_instance())
@settings(max_examples=150, deadline=None)
def test_ghost_only_fixpoint_leaves_no_ghost(inst):
    """With sender logs a kept send may lose its receive, never the reverse."""
    checkpoints, edges, failed = inst
    targets = line_targets(checkpoints, edges, failed, GHOST_ONLY)
    INF = float("inf")
    eff = [t if t is not None else INF for t in targets]
    for src, se, dst, re in edges:
        assert se < eff[src] or not re < eff[dst]


@given(domino_instance())
@settings(max_examples=150, deadline=None)
def test_domino_faulty_always_rolls(inst):
    checkpoints, edges, failed = inst
    for propagate in (DOMINO, GHOST_ONLY):
        targets = line_targets(checkpoints, edges, failed, propagate)
        assert targets[failed] is not None
        assert targets[failed] <= checkpoints[failed][-1]


@given(domino_instance())
@settings(max_examples=150, deadline=None)
def test_sender_logs_never_roll_a_cluster_further_back(inst):
    """``propagate={GHOST}`` is never worse than the full domino on the
    same input: a cluster it rolls back, the domino rolls at least as far."""
    checkpoints, edges, failed = inst
    logged = line_targets(checkpoints, edges, failed, GHOST_ONLY)
    domino = line_targets(checkpoints, edges, failed, DOMINO)
    for with_logs, without in zip(logged, domino):
        if with_logs is not None:
            assert without is not None and without <= with_logs


def test_line_targets_rejects_unknown_direction():
    with pytest.raises(ValueError):
        line_targets([[1], [1]], [], 0, propagate=("ghost", "orphan"))

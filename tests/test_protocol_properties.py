"""Property-based tests of the *live* protocol.

Hypothesis generates random-but-valid scenarios (scripted inter-cluster
sends, manual checkpoints, one failure); the event-driven implementation
must then agree with the pure recovery-line model and keep the federation
consistent.  This is the strongest correctness check in the suite: it ties
the message-passing machinery (2PC, piggybacking, alerts over the network,
replays, ghosts) to the declarative §3.4 semantics.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.oracle import assert_consistent, attach_oracle
from repro.app.process import scripted_sender_factory
from repro.core.recovery_line import cascade_targets
from repro.network.message import NodeId
from tests.conftest import make_federation


@st.composite
def scenario(draw):
    n_clusters = draw(st.integers(min_value=2, max_value=3))
    n_events = draw(st.integers(min_value=1, max_value=8))
    events = []
    t = 5.0
    for _ in range(n_events):
        t += draw(st.floats(min_value=2.0, max_value=15.0))
        kind = draw(st.sampled_from(["send", "clc"]))
        if kind == "send":
            src = draw(st.integers(0, n_clusters - 1))
            dst = draw(st.integers(0, n_clusters - 1))
            if src == dst:
                dst = (dst + 1) % n_clusters
            events.append(("send", t, src, dst))
        else:
            cluster = draw(st.integers(0, n_clusters - 1))
            events.append(("clc", t, cluster))
    faulty = draw(st.integers(0, n_clusters - 1))
    return n_clusters, events, faulty


def build_and_run(n_clusters, events, faulty):
    scripts: dict = {}
    for event in events:
        if event[0] == "send":
            _, t, src, dst = event
            scripts.setdefault(NodeId(src, 1), []).append(
                (t, NodeId(dst, 1), 256)
            )
    fed = make_federation(
        n_clusters=n_clusters,
        nodes=2,
        clc_period=None,
        total_time=600.0,
        app_factory=scripted_sender_factory(scripts),
    )
    oracle = attach_oracle(fed)
    fed.start()
    for event in events:
        if event[0] == "clc":
            _, t, cluster = event
            fed.sim.schedule_at(t, fed.protocol.request_checkpoint, cluster)
    # let every send/checkpoint settle, then snapshot and fail
    last_t = max((e[1] for e in events), default=5.0)
    fed.sim.run(until=last_t + 30.0)
    states = fed.protocol.cluster_states
    stored = [cs.store.ddv_list() for cs in states]
    current = [cs.ddv_tuple() for cs in states]
    dirty = [cs.state_dirty for cs in states]
    predicted = cascade_targets(stored, current, failed=faulty)
    fed.inject_failure(NodeId(faulty, 1))
    fed.sim.run(until=last_t + 200.0)
    return fed, predicted, dirty, oracle


@given(scenario())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_live_cascade_matches_pure_model(params):
    n_clusters, events, faulty = params
    fed, predicted, dirty, _oracle = build_and_run(n_clusters, events, faulty)
    for c, target in enumerate(predicted):
        # Alerts arrive asynchronously, so a cluster may descend to the
        # recovery line in several steps (each recorded); the property is
        # that the *fixpoint* -- the last rollback -- matches the pure
        # model, and intermediate steps never undershoot it.
        recs = [r for r in fed.tracer.find("rollback") if r["cluster"] == c]
        rec = recs[-1] if recs else None
        if target is None:
            assert rec is None, f"cluster {c} rolled back unexpectedly"
        else:
            for step in recs:
                assert step["to_sn"] >= target, "rolled back past the line"
            cs = fed.protocol.cluster_states[c]
            if c == faulty or dirty[c] or cs.rollback_epoch > 0:
                # a real rollback happened (or the no-op guard fired for a
                # clean state sitting exactly on the target)
                if rec is not None:
                    assert rec["to_sn"] == target
                else:
                    # no-op guard: the cluster was already exactly at the
                    # predicted target with a clean state
                    assert cs.sn == target
            else:
                if rec is not None:
                    assert rec["to_sn"] == target


@given(scenario())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_live_run_always_consistent_after_failure(params):
    n_clusters, events, faulty = params
    fed, _predicted, _dirty, oracle = build_and_run(n_clusters, events, faulty)
    report = assert_consistent(fed, oracle)
    sends = sum(1 for event in events if event[0] == "send")
    assert report.messages == sends


@given(scenario())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_everyone_recovers(params):
    n_clusters, events, faulty = params
    fed, _predicted, _dirty, _oracle = build_and_run(n_clusters, events, faulty)
    for cluster in fed.clusters:
        for node in cluster.nodes:
            assert node.up
    for cs in fed.protocol.cluster_states:
        assert not cs.recovering

"""Behavioral tests for the two new protocol families and the ablation
ranking.

The consistency/determinism invariants live in the oracle suites
(``test_consistency_oracle.py``, ``test_oracle_properties.py``); here we
pin the *distinguishing* behaviors: min-process rounds really synchronize
only the causally-entangled minimum set, the CIC predicates really place
forced checkpoints differently, the ghost-line fixpoint never rolls a
logged sender back, the stale-send guards recognize erased timelines, and
the leave-one-out importance ranking orders components correctly.
"""

import pytest

from repro.app.process import scripted_sender_factory
from repro.core.recovery_line import GHOST, line_targets
from repro.experiments.studies import (
    component_importance,
    render_importance_markdown,
)
from repro.experiments.common import ExperimentResult
from repro.network.message import Message, MessageKind, NodeId
from tests.conftest import make_federation


# ----------------------------------------------------------------------
# min-process: the round synchronizes only the entangled set
# ----------------------------------------------------------------------

class TestMinProcess:
    def test_participants_follow_communication(self):
        # traffic only 0 -> 1: cluster 2 stays out of every minimum set
        scripts = {
            NodeId(0, 1): [(5.0, NodeId(1, 1), 256), (9.0, NodeId(1, 1), 256)]
        }
        fed = make_federation(
            n_clusters=3, nodes=2, clc_period=None, total_time=100.0,
            protocol="min-process",
            app_factory=scripted_sender_factory(scripts),
        )
        fed.start()
        fed.sim.run(until=20.0)
        protocol = fed.protocol
        assert protocol.participants_for(0) == [0, 1]
        assert protocol.participants_for(1) == [0, 1]
        assert protocol.participants_for(2) == [2]

    def test_uninvolved_cluster_does_not_roll_back(self):
        scripts = {
            NodeId(0, 1): [(5.0, NodeId(1, 1), 256)]
        }
        fed = make_federation(
            n_clusters=3, nodes=2, clc_period=120.0, total_time=600.0,
            protocol="min-process",
            app_factory=scripted_sender_factory(scripts),
        )
        fed.start()
        fed.sim.run(until=300.0)
        fed.inject_failure(NodeId(0, 1))
        fed.run()
        rolled = {
            r["cluster"] for r in fed.protocol.tracer.find("rollback")
        }
        assert 0 in rolled
        assert 2 not in rolled, "cluster 2 never communicated; no domino"
        for cluster in fed.clusters:
            for node in cluster.nodes:
                assert node.up

    def test_rounds_record_participant_sizes(self):
        fed = make_federation(
            n_clusters=3, nodes=2, clc_period=60.0, total_time=400.0,
            protocol="min-process", chatty=True, seed=3,
        )
        fed.run()
        tally = fed.protocol.stats.tally("minproc/participants")
        assert tally.count > 0
        # with per-cluster timers firing independently, at least one round
        # must have been smaller than the whole federation
        assert tally.min < 3 or tally.mean < 3


# ----------------------------------------------------------------------
# clc-cic: ghost-line fixpoint + predicate placement
# ----------------------------------------------------------------------

class TestGhostLineTargets:
    def test_ghost_direction_propagates(self):
        # c0 rolls to ordinal 2; c1 delivered (at its ordinal 3) a message
        # c0 sent at ordinal 3 (erased) -> c1 must descend to <= 3
        checkpoints = [[1, 2, 3], [1, 2, 3, 4]]
        edges = [(0, 3, 1, 3)]
        targets = line_targets(checkpoints, edges, failed=0, propagate={GHOST})
        assert targets[0] == 3  # last stored checkpoint of the faulty cluster
        assert targets[1] == 3  # descended below the erased delivery

    def test_in_transit_does_not_lower_sender(self):
        # c1 (faulty) rolls, erasing its *delivery* of c0's message; the
        # sender log replays it, so c0 must NOT roll back
        checkpoints = [[1, 2, 3], [1, 2]]
        edges = [(0, 2, 1, 2)]
        targets = line_targets(checkpoints, edges, failed=1, propagate={GHOST})
        assert targets[1] == 2
        assert targets[0] is None

    def test_faulty_without_checkpoint_raises(self):
        with pytest.raises(ValueError):
            line_targets([[1], []], [], failed=1, propagate={GHOST})


class TestCicPredicates:
    def run_predicate(self, predicate):
        """c0 checkpoints (lc 1->2) and then sends to c1, whose clock is
        still behind: the predicate decides whether c1 must checkpoint
        before delivering."""
        scripts = {
            NodeId(0, 1): [(5.0, NodeId(1, 1), 256), (30.0, NodeId(1, 1), 256)]
        }
        fed = make_federation(
            n_clusters=2, nodes=2, clc_period=None, total_time=200.0,
            protocol="clc-cic", protocol_options={"predicate": predicate},
            app_factory=scripted_sender_factory(scripts),
        )
        fed.start()
        fed.sim.schedule_at(20.0, fed.protocol.request_checkpoint, 0)
        fed.run()
        return fed

    def test_bcs_forces_checkpoints(self):
        fed = self.run_predicate("bcs")
        stats = fed.protocol.stats
        assert stats.counter("cic/forces_requested").value > 0
        assert fed.protocol.cluster_summary(1)["clc_forced"] > 0
        # the forced checkpoint adopted the sender's clock
        assert fed.protocol.cluster_states[1].lc >= fed.protocol.cluster_states[0].lc

    def test_aftersend_skips_the_same_force(self):
        fed = self.run_predicate("bcs-aftersend")
        stats = fed.protocol.stats
        assert stats.counter("cic/forced_skipped").value > 0
        assert stats.counter("cic/forces_requested").value == 0
        assert fed.protocol.cluster_summary(1)["clc_forced"] == 0
        # the clock was still adopted without a checkpoint
        assert fed.protocol.cluster_states[1].lc == fed.protocol.cluster_states[0].lc

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError, match="predicate"):
            make_federation(
                n_clusters=2, nodes=2, protocol="clc-cic",
                protocol_options={"predicate": "zpf"},
            )


# ----------------------------------------------------------------------
# stale-send (ghost window) guards on the erasure-blind baselines
# ----------------------------------------------------------------------

def ghost_probe(protocol_name):
    fed = make_federation(
        n_clusters=2, nodes=2, clc_period=120.0, total_time=100.0,
        protocol=protocol_name,
    )
    fed.start()
    fed.sim.run(until=10.0)
    return fed


@pytest.mark.parametrize("protocol_name", ["independent", "global-coordinated"])
def test_send_erased_recognizes_windows(protocol_name):
    fed = ghost_probe(protocol_name)
    protocol = fed.protocol
    msg = Message(
        src=NodeId(0, 1), dst=NodeId(1, 1), kind=MessageKind.APP, size=64
    )
    msg.send_time = 50.0
    assert not protocol.send_erased(msg)
    protocol.ghost_windows[0].append((40.0, 60.0))
    assert protocol.send_erased(msg)
    for boundary in (40.0, 60.0):  # closed interval, both ends erased
        msg.send_time = boundary
        assert protocol.send_erased(msg)
    msg.send_time = 60.0001
    assert not protocol.send_erased(msg)


def test_rollback_opens_a_ghost_window():
    fed = make_federation(
        n_clusters=2, nodes=2, clc_period=120.0, total_time=600.0,
        protocol="independent", chatty=True, seed=2,
    )
    fed.start()
    fed.sim.run(until=300.0)
    fed.inject_failure(NodeId(0, 1))
    fed.run()
    assert any(fed.protocol.ghost_windows), "rollback recorded no window"
    for windows in fed.protocol.ghost_windows:
        for erased_from, erased_until in windows:
            assert erased_from <= erased_until


# ----------------------------------------------------------------------
# leave-one-out importance ranking
# ----------------------------------------------------------------------

def fake_ablation_result():
    return ExperimentResult(
        name="ablation-components",
        description="synthetic",
        x_label="configuration",
        xs=["full hc3i", "no ddv", "no logging", "no gc"],
        series={"lost_work": [100.0, 90.0, 400.0, 100.0]},
    )


class TestComponentImportance:
    def test_ranking_orders_by_delta(self):
        ranking = component_importance(fake_ablation_result())
        assert ranking["baseline_value"] == 100.0
        assert [e["component"] for e in ranking["components"]] == [
            "logging", "gc", "ddv"
        ]
        assert [e["rank"] for e in ranking["components"]] == [1, 2, 3]
        by_name = {e["component"]: e for e in ranking["components"]}
        assert by_name["logging"]["delta"] == 300.0
        assert not by_name["logging"]["harmful"]
        assert by_name["ddv"]["harmful"]  # removing it helped
        assert by_name["gc"]["delta"] == 0.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError, match="unknown ablation metric"):
            component_importance(fake_ablation_result(), metric="latency")

    def test_markdown_report_shape(self):
        ranking = component_importance(fake_ablation_result())
        md = render_importance_markdown(ranking)
        assert "# HC3I component importance" in md
        assert "| 1 | logging |" in md
        assert "load-bearing (removal costs)" in md
        assert "harmful on this workload" in md

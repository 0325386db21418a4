"""Integration test: the paper's §4 worked example (Figure 5).

Every observable step of the narrative is asserted: which messages force
CLCs, the acknowledgement SNs, the rollback targets and the alert cascade.
"""

import pytest

from repro.analysis.oracle import attach_oracle, check_invariants
from repro.cluster.federation import Federation
from repro.experiments import figure5
from repro.experiments.figure5 import figure5_scenario


@pytest.fixture(scope="module")
def watched():
    """The scenario's outcome and an oracle on its federation.

    ``figure5_scenario`` builds and starts its own federation, so the
    oracle goes on through the constructor the scenario calls (the shims
    record and pass through: the run is trace-identical to a bare one).
    """
    oracles = []

    def watched_federation(*args, **kwargs):
        fed = Federation(*args, **kwargs)
        oracles.append(attach_oracle(fed))
        return fed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(figure5, "Federation", watched_federation)
        outcome = figure5_scenario()
    (oracle,) = oracles
    return outcome, oracle


@pytest.fixture(scope="module")
def outcome(watched):
    return watched[0]


class TestPreFault:
    def test_sequence_numbers(self, outcome):
        # c0: initial + m5-forced; c1: initial + m1-forced + 2 manual;
        # c2: initial + m3-forced + m4-forced
        assert outcome.pre_fault_sns == [2, 4, 3]

    def test_ddvs(self, outcome):
        assert outcome.pre_fault_ddvs[0] == (2, 0, 3)   # heard c2@3 via m5
        assert outcome.pre_fault_ddvs[1] == (1, 4, 0)   # heard c0@1 via m1
        assert outcome.pre_fault_ddvs[2] == (0, 4, 3)   # heard c1@4 via m4

    def test_forced_counts(self, outcome):
        """m1, m3, m4, m5 forced CLCs; m2 did not."""
        assert outcome.pre_fault_forced == [1, 1, 2]

    def test_acks_are_sn_plus_one(self, outcome):
        assert outcome.acks == {"m1": 2, "m2": 3, "m3": 2, "m4": 3, "m5": 2}


class TestCascade:
    def test_rollback_order_and_targets(self, outcome):
        """Faulty cluster to its last CLC; c2 to the m4 boundary; c0 to
        the m5 boundary."""
        assert outcome.rollbacks == [(1, 4), (2, 3), (0, 2)]

    def test_alert_cascade(self, outcome):
        assert outcome.alerts == [(1, 4), (2, 3), (0, 2)]

    def test_no_further_rollbacks(self, outcome):
        """"no cluster has to rollback anymore" -- exactly one rollback
        per cluster."""
        clusters = [c for c, _sn in outcome.rollbacks]
        assert sorted(clusters) == [0, 1, 2]

    def test_no_replays_needed(self, outcome):
        """All logged messages were acked at or below the alert SNs."""
        assert outcome.replays == 0

    def test_post_fault_sns_match_targets(self, outcome):
        assert outcome.post_fault_sns == [2, 4, 3]


class TestTransitiveVariant:
    """Under whole-DDV piggybacking the recovery line is identical, but it
    is reached in a *single alert hop*: m5 carried c2's whole DDV, so
    cluster 0 already knows it depends on cluster 1 and reacts to the
    faulty cluster's own alert instead of waiting for cluster 2's."""

    @pytest.fixture(scope="class")
    def ddv_outcome(self):
        return figure5_scenario(protocol_options={"mode": "ddv"})

    def test_same_recovery_line(self, ddv_outcome, outcome):
        assert sorted(ddv_outcome.rollbacks) == sorted(outcome.rollbacks)
        assert ddv_outcome.replays == outcome.replays

    def test_one_hop_convergence(self, ddv_outcome):
        # cluster 0 rolls back immediately after the faulty cluster's own
        # alert (position 2 in SN mode, position 1 here)
        assert ddv_outcome.rollbacks[0] == (1, 4)
        assert ddv_outcome.rollbacks[1] == (0, 2)

    def test_same_acks(self, ddv_outcome, outcome):
        assert ddv_outcome.acks == outcome.acks

    def test_transitive_entries_appear(self, ddv_outcome):
        # c2 learned c0's SN through c1 (m3); c0 learned c1's SN through
        # c2 (m5) -- neither ever received from those clusters directly
        assert ddv_outcome.pre_fault_ddvs[2][0] == 1
        assert ddv_outcome.pre_fault_ddvs[0][1] == 4
        assert ddv_outcome.pre_fault_sns == [2, 4, 3]


class TestPostRecovery:
    def test_protocol_invariants_hold(self, outcome):
        assert check_invariants(outcome.federation) == []

    def test_consistency(self, watched):
        """The oracle's verdict on m1..m5 across the three rollbacks."""
        _outcome, oracle = watched
        report = oracle.check()
        assert report.ok, str(report)
        assert report.messages == 5
        assert report.erasures == 3

    def test_ghost_sends_dropped_from_logs(self, outcome):
        """m4 (sent in c1's erased epoch) and m5 (c2's) left the logs."""
        states = outcome.federation.protocol.cluster_states
        assert states[1].sent_log.dropped_by_rollback == 1  # m4
        assert states[2].sent_log.dropped_by_rollback == 1  # m5

    def test_epochs_bumped_once_each(self, outcome):
        states = outcome.federation.protocol.cluster_states
        assert [cs.rollback_epoch for cs in states] == [1, 1, 1]

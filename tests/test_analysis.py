"""Tests for the analysis subpackage: the oracle's state-invariant
pre-check, rollback costs, reporting.  (The trace-replay verdict itself is
tested in ``tests/test_consistency_oracle.py``.)"""

from repro.analysis.oracle import attach_oracle, check_invariants
from repro.analysis.reporting import format_series, format_table
from repro.analysis.rollback_cost import rollback_costs
from repro.network.message import NodeId
from tests.conftest import make_federation


class TestCheckInvariants:
    def test_clean_run_no_violations(self):
        fed = make_federation(clc_period=100.0, total_time=500.0, chatty=True)
        fed.run()
        assert check_invariants(fed) == []

    def test_detects_sn_ddv_mismatch(self):
        fed = make_federation(clc_period=100.0, total_time=200.0)
        fed.run()
        fed.protocol.cluster_states[0].sn += 5
        problems = check_invariants(fed)
        assert problems
        assert any("own entry" in p or "sn" in p for p in problems)

    def test_detects_ddv_entry_beyond_peer_commits(self):
        """A DDV entry is an SN a peer stamped on a message, and an SN grows
        by one per commit: an entry above the peer's commit count names a
        CLC that never existed."""
        fed = make_federation(clc_period=100.0, total_time=200.0, chatty=True)
        fed.run()
        assert check_invariants(fed) == []
        cs = fed.protocol.cluster_states[0]
        cs.ddv[1] = fed.protocol.clc_count(1, "total") + 1
        problems = check_invariants(fed)
        assert len(problems) == 1
        assert "ddv[1]" in problems[0]

    def test_oracle_reports_problems_as_invariant_violations(self):
        fed = make_federation(clc_period=100.0, total_time=200.0, chatty=True)
        oracle = attach_oracle(fed)
        fed.run()
        assert oracle.check().ok
        fed.protocol.cluster_states[0].sn += 5
        report = oracle.check()
        assert not report.ok
        assert {kind for kind, _ in report.violations} == {"invariant"}
        assert "INCONSISTENT" in str(report)

    def test_non_hc3i_returns_empty(self):
        fed = make_federation(protocol="global-coordinated", total_time=50.0)
        fed.run()
        assert check_invariants(fed) == []


class TestRollbackCosts:
    def test_counts_episodes(self):
        fed = make_federation(
            clc_period=80.0, total_time=1000.0, chatty=True, seed=4
        )
        fed.start()
        fed.sim.run(until=300.0)
        fed.inject_failure(NodeId(0, 1))
        fed.sim.run(until=700.0)
        fed.inject_failure(NodeId(1, 1))
        fed.run()
        costs = rollback_costs(fed)
        assert costs.failures == 2
        assert len(costs.clusters_rolled_per_failure) == 2
        assert costs.mean_clusters_per_failure >= 1.0

    def test_no_failures_zero_costs(self):
        fed = make_federation(clc_period=100.0, total_time=300.0)
        fed.run()
        costs = rollback_costs(fed)
        assert costs.failures == 0
        assert costs.rollbacks == 0
        assert costs.lost_work_node_seconds == 0.0
        assert costs.mean_clusters_per_failure == 0.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [("a", 1), ("long-name", 123456)],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1  # aligned widths

    def test_format_table_floats(self):
        text = format_table(["x"], [(1.5,), (2.0,)])
        assert "1.5" in text
        assert "2" in text  # integral floats rendered without .0

    def test_format_series(self):
        text = format_series(
            "x", [1, 2], {"a": [10, 20], "b": [30, 40]}, title="S"
        )
        assert "x" in text and "a" in text and "b" in text
        assert "10" in text and "40" in text

    def test_series_rows_follow_xs(self):
        text = format_series("x", [5, 9], {"y": [1, 2]})
        lines = text.splitlines()
        assert lines[-2].strip().startswith("5")
        assert lines[-1].strip().startswith("9")

"""Tests for the robustness, MTBF-sweep and scalability experiments."""

import pytest

from repro.experiments.runner import run_experiment

HOUR = 3600.0


class TestRobustness:
    @pytest.fixture(scope="class")
    def exp(self):
        return run_experiment(
            "robustness", {"seeds": [1, 2, 3], "nodes": 10, "total_time": 2 * HOUR}
        ).result

    def test_one_row_per_metric(self, exp):
        assert len(exp.rows) == 8
        names = [row[0] for row in exp.rows]
        assert "msgs 0->0" in names and "c1 forced" in names

    def test_stats_sane(self, exp):
        for name, mean, std, lo, hi in exp.rows:
            assert lo <= mean <= hi
            assert std >= 0

    def test_c1_never_unforced(self, exp):
        row = next(r for r in exp.rows if r[0] == "c1 unforced")
        assert row[4] == 0  # max over seeds

    def test_seeds_recorded_in_notes(self, exp):
        assert any("seeds" in n for n in exp.notes)


class TestMtbfSweep:
    @pytest.fixture(scope="class")
    def exp(self):
        return run_experiment(
            "mtbf",
            {
                "mtbfs": [2 * HOUR, HOUR / 2],
                "protocols": ("hc3i", "global-coordinated"),
                "nodes": 4,
                "total_time": 4 * HOUR,
                "seed": 7,
            },
        ).result

    def test_rows_per_protocol_and_mtbf(self, exp):
        assert len(exp.rows) == 4

    def test_goodput_bounded_above(self, exp):
        # goodput may legitimately go negative at extreme failure rates
        # (re-execution thrash), but can never exceed 1
        for row in exp.rows:
            assert row[4] <= 1.0

    def test_failures_increase_with_rate(self, exp):
        by_key = {(r[0], r[1]): r for r in exp.rows}
        assert by_key[("hc3i", "0.5h")][2] >= by_key[("hc3i", "2h")][2]

    def test_hc3i_beats_global_at_high_rate(self, exp):
        by_key = {(r[0], r[1]): r for r in exp.rows}
        assert (
            by_key[("hc3i", "0.5h")][4]
            >= by_key[("global-coordinated", "0.5h")][4]
        )


class TestScaling:
    def test_shapes_and_rates(self):
        exp = run_experiment(
            "scaling", {"shapes": [(2, 4), (3, 4)], "total_time": 600.0, "seed": 1}
        ).result
        assert [row[0] for row in exp.rows] == ["2x4", "3x4"]
        for row in exp.rows:
            assert row[2] > 0      # events
        assert len(exp.headers) == 5  # counts only: no host-speed column
        # more clusters, more protocol traffic
        assert exp.rows[1][4] > 0

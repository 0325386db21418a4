"""Full-scale agreement with the paper's published numbers (§5.2, §5.4).

The reduced-scale suites (``test_experiments.py``) check each artifact's
*shape*; these three checks need the paper's configuration -- 100 nodes
per cluster, a 10-hour application -- because the published values are
absolute counts.
"""

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.table1 import PAPER_TABLE1

pytestmark = pytest.mark.slow

SEED = 42


def test_table1_within_poisson_noise_of_the_paper():
    """2920 / 2497 / 145 / 11 messages, and who talks most to whom."""
    exp = run_experiment("table1", {"seed": SEED}).result
    measured = {(int(row[0][-1]), int(row[1][-1])): row[2] for row in exp.rows}
    for flow, paper_count in PAPER_TABLE1.items():
        # 40% either way, plus slack for the two sparse inter-cluster flows
        assert 0.6 * paper_count - 8 <= measured[flow] <= 1.4 * paper_count + 8
    assert measured[(0, 0)] > measured[(0, 1)] > measured[(1, 0)]
    assert measured[(1, 1)] > measured[(1, 0)]


def test_no_gc_reference_stores_about_63_clcs_per_cluster():
    """§5.4: 63 CLCs per cluster, so 126 local states per node."""
    exp = run_experiment("no-gc", {"seed": SEED}).result
    for _cluster, stored, states, _peak in exp.rows:
        assert 40 <= stored <= 90
        assert states == 2 * stored


def test_fig6_forced_clcs_do_not_follow_the_timer():
    """Cluster 0's forced CLCs stay level from a 5-minute to a 2-hour timer."""
    exp = run_experiment("fig6-fig7", {"seed": SEED}).result
    assert len(exp.xs) == 9
    forced = exp.series["c0 forced"]
    assert max(forced) - min(forced) <= max(3, max(forced) // 2)

"""Verification and reporting utilities.

* :mod:`~repro.analysis.oracle` -- the one consistency oracle: records a
  run's inter-cluster sends, deliveries and rollbacks from the outside
  and replays them against the paper's §2.2 definition ("neither
  in-transit messages ... nor ghost-messages"), for every protocol
  family, after a pre-check of the HC3I state invariants (SN/DDV
  agreement, store monotonicity); ``hc3i-sim`` prints its verdict,
* :mod:`~repro.analysis.rollback_cost` -- lost-work / rollback-depth
  accounting extracted from statistics and traces,
* :mod:`~repro.analysis.reporting` -- renders the paper's tables and
  figure series as text.
"""

from repro.analysis.oracle import (
    ConsistencyOracle,
    ConsistencyReport,
    assert_consistent,
    attach_oracle,
    check_invariants,
)
from repro.analysis.rollback_cost import RollbackCostReport, rollback_costs
from repro.analysis.reporting import format_series, format_table
from repro.analysis.timeline import render_timeline

__all__ = [
    "ConsistencyOracle",
    "ConsistencyReport",
    "RollbackCostReport",
    "assert_consistent",
    "attach_oracle",
    "check_invariants",
    "format_series",
    "format_table",
    "render_timeline",
    "rollback_costs",
]

"""Verification and reporting utilities.

* :mod:`~repro.analysis.consistency` -- checks the paper's §2.2
  consistency definition ("neither in-transit messages ... nor
  ghost-messages") on a finished or paused federation, plus protocol
  invariants (SN/DDV agreement, store monotonicity),
* :mod:`~repro.analysis.rollback_cost` -- lost-work / rollback-depth
  accounting extracted from statistics and traces,
* :mod:`~repro.analysis.reporting` -- renders the paper's tables and
  figure series as text.
"""

from repro.analysis.consistency import (
    ConsistencyReport,
    check_invariants,
    verify_consistency,
)
from repro.analysis.rollback_cost import RollbackCostReport, rollback_costs
from repro.analysis.reporting import format_series, format_table
from repro.analysis.timeline import render_timeline

__all__ = [
    "ConsistencyReport",
    "RollbackCostReport",
    "check_invariants",
    "format_series",
    "format_table",
    "render_timeline",
    "rollback_costs",
    "verify_consistency",
]

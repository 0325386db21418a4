"""Baseline checkpoint/recovery protocols HC3I is compared against.

The paper positions HC3I against three families (§2.2, §6) and one strawman
(§3.2 / Fig. 4); with HC3I itself, its transitive variant and two post-paper
families that makes eight registered protocols, all built from the same
toolkit (:mod:`repro.core.rounds`, :mod:`repro.core.recovery_line`) so the
benchmark harness can swap them by name.  The paper's four:

* ``global-coordinated`` -- one federation-wide two-phase commit ("The
  large number of nodes and network performance between clusters do not
  allow a global synchronization"): every checkpoint freezes the whole
  federation across WAN latencies, and any failure rolls every cluster
  back.
* ``independent`` -- fully uncoordinated cluster checkpoints with
  dependency tracking and recovery-line computation at rollback time:
  exhibits the domino effect the paper warns about.
* ``pessimistic-log`` -- MPICH-V-style "log all communications" under the
  piecewise-deterministic assumption: only the crashed node rolls back, at
  the price of logging every message.
* ``cic-always`` -- HC3I without the SN/DDV test: a CLC is forced on
  *every* inter-cluster message, including Fig. 4's useless CLC3.

Transitive dependency tracking (``hc3i-transitive``) is HC3I with the whole
DDV piggybacked instead of the SN (§7 future work).

Two post-paper families extend the tournament beyond the paper's baselines:

* ``min-process`` -- Tuli & Kumar-style minimum-process coordinated
  checkpointing: each round synchronizes only the transitive closure of
  clusters that communicated since their last checkpoint, instead of the
  whole federation.
* ``clc-cic`` -- index-based communication-induced checkpointing with a
  pluggable forced-checkpoint predicate (``bcs`` or ``bcs-aftersend``)
  from the Garcia/Vieira/Buzato taxonomy.
"""

from repro.baselines.cic_always import CicAlwaysProtocol, Hc3iTransitiveProtocol
from repro.baselines.clc_cic import ClcCicProtocol
from repro.baselines.global_coordinated import GlobalCoordinatedProtocol
from repro.baselines.independent import IndependentProtocol
from repro.baselines.min_process_coordinated import MinProcessCoordinatedProtocol
from repro.baselines.pessimistic_log import PessimisticLogProtocol

__all__ = [
    "CicAlwaysProtocol",
    "ClcCicProtocol",
    "GlobalCoordinatedProtocol",
    "Hc3iTransitiveProtocol",
    "IndependentProtocol",
    "MinProcessCoordinatedProtocol",
    "PessimisticLogProtocol",
]

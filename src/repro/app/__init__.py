"""Synthetic code-coupling applications.

The paper's workloads are stochastic: each process alternates exponential
compute phases with probabilistic message emissions, per the *application
file* (§5.1).  This subpackage provides:

* :mod:`~repro.app.process` -- the compute/communicate loop run on every
  node, plus deterministic scripted senders,
* :mod:`~repro.app.workloads` -- ready-made configurations calibrated to
  the paper's evaluation (Table 1 counts, Figure 9 sweeps, the Table 2/3 GC
  scenarios, and the Figure 1 pipeline).
"""

from repro.app.process import (
    compute_communicate_factory,
    exchange_factory,
    scripted_sender_factory,
)
from repro.app.workloads import (
    fig9_workload,
    pipeline_workload,
    table1_workload,
    table2_workload,
    table3_workload,
)

__all__ = [
    "compute_communicate_factory",
    "exchange_factory",
    "fig9_workload",
    "pipeline_workload",
    "scripted_sender_factory",
    "table1_workload",
    "table2_workload",
    "table3_workload",
]

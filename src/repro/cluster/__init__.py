"""Cluster federation runtime: nodes, stable storage, failures, builder.

* :class:`~repro.cluster.node.Node` -- the system-level module of the
  paper's Figure 2: it hosts the application process, catches every
  inter-process message and talks to the protocol agent,
* :class:`~repro.cluster.storage.StableStorage` -- checkpoint data
  replicated "in the memory of an other node in the cluster" (§3.1),
* :mod:`~repro.cluster.failures` -- MTBF-driven fail-stop injection, one
  fault at a time, each reported by a fixed-latency oracle (the paper puts
  the failure detector out of scope),
* :class:`~repro.cluster.federation.Federation` -- wires topology,
  application, timers and a protocol into a runnable simulation.
"""

from repro.cluster.node import ClusterRuntime, Node
from repro.cluster.storage import StableStorage
from repro.cluster.failures import FailureInjector
from repro.cluster.federation import Federation, FederationResults

__all__ = [
    "ClusterRuntime",
    "FailureInjector",
    "Federation",
    "FederationResults",
    "Node",
    "StableStorage",
]

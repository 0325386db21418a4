"""repro -- reproduction of the HC3I hierarchical checkpointing protocol.

Monnet, Morin & Badrinath, "A Hierarchical Checkpointing Protocol for
Parallel Applications in Cluster Federations", FTPDS/IPDPS-W 2004.

Quickstart::

    from repro import Federation, table1_workload

    topology, application, timers = table1_workload(nodes=10, total_time=3600)
    fed = Federation(topology, application, timers, protocol="hc3i", seed=7)
    results = fed.run()
    print(results.clc_counts(0), results.app_messages(0, 1))

Layout:

* :mod:`repro.sim` -- deterministic discrete-event kernel (C++SIM stand-in),
* :mod:`repro.network` -- federation link/latency model and message fabric,
* :mod:`repro.cluster` -- nodes, stable storage, failures, the builder,
* :mod:`repro.app` -- synthetic code-coupling workloads,
* :mod:`repro.core` -- the HC3I protocol (CLCs, DDV, logging, rollback, GC),
* :mod:`repro.baselines` -- comparison protocols (global coordinated,
  independent, pessimistic logging, force-on-every-message),
* :mod:`repro.experiments` -- one module per paper table/figure,
* :mod:`repro.analysis` -- consistency checking and reporting.
"""

from repro.cluster.federation import Federation, FederationResults
from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.loader import ScenarioConfig, load_scenario
from repro.config.timers import TimersConfig
from repro.core.hc3i import Hc3iProtocol
from repro.core.protocol import make_protocol, protocol_names, register_protocol
from repro.network.topology import ClusterSpec, LinkSpec, Topology
from repro.app.workloads import (
    fig9_workload,
    pipeline_workload,
    table1_workload,
    table2_workload,
    table3_workload,
)
from repro.sim.trace import TraceLevel

# Importing the baselines registers them with the protocol registry.
import repro.baselines  # noqa: E402,F401

#: the one version literal; pyproject.toml reads it (``dynamic = ["version"]``)
__version__ = "1.2.0"

__all__ = [
    "ApplicationConfig",
    "ClusterAppSpec",
    "ClusterSpec",
    "Federation",
    "FederationResults",
    "Hc3iProtocol",
    "LinkSpec",
    "ScenarioConfig",
    "TimersConfig",
    "Topology",
    "TraceLevel",
    "fig9_workload",
    "load_scenario",
    "make_protocol",
    "pipeline_workload",
    "protocol_names",
    "register_protocol",
    "table1_workload",
    "table2_workload",
    "table3_workload",
]

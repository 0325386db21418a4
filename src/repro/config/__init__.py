"""Simulator configuration: the paper's three input files.

The original simulator is "configurable.  The user has to provide three
files: a topology file, an application file and a timer file" (§5.1).  This
subpackage provides the corresponding dataclasses, their strict JSON/dict
readers (an unknown key is refused by name) and validation:

* :class:`~repro.network.topology.Topology` -- clusters, per-cluster SAN
  parameters, inter-cluster triangular link matrix, federation MTBF,
* :class:`~repro.config.application.ApplicationConfig` -- per-cluster mean
  computation times, communication-pattern probabilities and total run time,
* :class:`~repro.config.timers.TimersConfig` -- per-cluster delay between
  unforced CLCs, garbage-collection period, failure-detection delay and the
  other protocol delays.
"""

from repro.config.application import ApplicationConfig, ClusterAppSpec
from repro.config.timers import TimersConfig
from repro.config.loader import ScenarioConfig, load_scenario, topology_from_dict

__all__ = [
    "ApplicationConfig",
    "ClusterAppSpec",
    "ScenarioConfig",
    "TimersConfig",
    "load_scenario",
    "topology_from_dict",
]

"""Loading scenario configuration (the three JSON files).

``load_scenario`` reads the paper's three configuration files (topology,
application, timers) and bundles them into a :class:`ScenarioConfig` ready
to hand to :class:`~repro.cluster.federation.Federation`.  Every reader
refuses keys it does not know (:func:`repro.config.keys.refuse_unknown_keys`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

from repro.config.application import ApplicationConfig
from repro.config.keys import refuse_unknown_keys
from repro.config.timers import TimersConfig
from repro.network.topology import ClusterSpec, LinkSpec, Topology

__all__ = ["ScenarioConfig", "load_scenario", "topology_from_dict"]

PathLike = Union[str, Path]


def topology_from_dict(data: dict) -> Topology:
    """Build a :class:`Topology` from its JSON form.

    Expected shape::

        {
          "clusters": [{"name": "c0", "nodes": 100,
                        "latency": 1e-5, "bandwidth": 8e7}, ...],
          "inter_links": [{"between": [0, 1],
                           "latency": 1.5e-4, "bandwidth": 1e8}, ...],
          "default_inter_link": {"latency": 1.5e-4, "bandwidth": 1e8},
          "mtbf": 86400.0            # optional; omit for no failures
        }
    """
    refuse_unknown_keys(
        "topology", data, ("clusters", "inter_links", "default_inter_link", "mtbf")
    )
    clusters = []
    for c in data["clusters"]:
        refuse_unknown_keys("topology cluster", c, ("name", "nodes", "latency", "bandwidth"))
        link = LinkSpec(latency=c.get("latency", 10e-6), bandwidth=c.get("bandwidth", 80e6))
        clusters.append(ClusterSpec(name=c["name"], nodes=c["nodes"], link=link))
    inter = {}
    for entry in data.get("inter_links", []):
        refuse_unknown_keys("topology inter_links", entry, ("between", "latency", "bandwidth"))
        i, j = entry["between"]
        inter[(i, j)] = LinkSpec(latency=entry["latency"], bandwidth=entry["bandwidth"])
    default = data.get("default_inter_link")
    kwargs = {}
    if default is not None:
        refuse_unknown_keys("topology default_inter_link", default, ("latency", "bandwidth"))
        kwargs["default_inter_link"] = LinkSpec(
            latency=default["latency"], bandwidth=default["bandwidth"]
        )
    return Topology(clusters=clusters, inter_links=inter, mtbf=data.get("mtbf"), **kwargs)


@dataclass
class ScenarioConfig:
    """A complete simulation scenario: the three files plus run options."""

    topology: Topology
    application: ApplicationConfig
    timers: TimersConfig
    protocol: str = "hc3i"
    protocol_options: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.application.clusters) != self.topology.n_clusters:
            raise ValueError(
                f"application describes {len(self.application.clusters)} clusters "
                f"but topology has {self.topology.n_clusters}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        refuse_unknown_keys("scenario", data, (f.name for f in fields(cls)))
        return cls(
            topology=topology_from_dict(data["topology"]),
            application=ApplicationConfig.from_dict(data["application"]),
            timers=TimersConfig.from_dict(data["timers"]),
            protocol=data.get("protocol", "hc3i"),
            protocol_options=dict(data.get("protocol_options", {})),
            seed=data.get("seed", 0),
        )


def _read_json(path: PathLike) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_scenario(
    topology_file: PathLike,
    application_file: PathLike,
    timers_file: PathLike,
    protocol: str = "hc3i",
    protocol_options: Optional[dict] = None,
    seed: int = 0,
) -> ScenarioConfig:
    """Load the three separate config files, as the paper's simulator does.

    A single-file form is also supported: if ``topology_file`` points to a
    JSON document containing all three sections (``topology``,
    ``application``, ``timers``) the other two paths may equal it.
    """
    topo_data = _read_json(topology_file)
    if "topology" in topo_data and "application" in topo_data:
        return ScenarioConfig.from_dict(topo_data)
    return ScenarioConfig(
        topology=topology_from_dict(topo_data),
        application=ApplicationConfig.from_dict(_read_json(application_file)),
        timers=TimersConfig.from_dict(_read_json(timers_file)),
        protocol=protocol,
        protocol_options=dict(protocol_options or {}),
        seed=seed,
    )

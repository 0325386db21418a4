"""Federation topology: clusters, nodes and link characteristics.

Mirrors the paper's *topology file*: "the number of clusters, the number of
nodes in each cluster, the bandwidth and latency in each cluster and between
clusters (represented as a triangular matrix) and the federation MTBF"
(§5.1).

Bandwidths are expressed in **bits per second** and latencies in **seconds**
to match the paper's "Myrinet-like (10µs latency and 80Mb/sec bandwidth)"
and "Ethernet-like (150µs latency and 100Mb/sec bandwidth)" figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.network.message import NodeId

__all__ = ["ClusterSpec", "LinkSpec", "Topology", "MYRINET_LIKE", "ETHERNET_LIKE",
           "check_node_count"]


def check_node_count(what: str, nodes: int) -> None:
    """Refuse a cluster of fewer than one node."""
    if nodes < 1:
        raise ValueError(f"{what} must have >= 1 node: {nodes}")


@dataclass(frozen=True)
class LinkSpec:
    """Latency/bandwidth of a (logical) link."""

    latency: float        #: one-way latency in seconds
    bandwidth: float      #: bits per second

    def __post_init__(self) -> None:
        # `not (in range)`, so that NaN, which compares False with
        # everything, is refused too: a NaN delay reaches the kernel heap
        if not 0 <= self.latency < math.inf:
            raise ValueError(f"latency must be finite and >= 0: {self.latency}")
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be finite and > 0: {self.bandwidth}")

    def transfer_delay(self, size_bytes: int) -> float:
        """One-way delay for a message of ``size_bytes``."""
        return self.latency + (size_bytes * 8.0) / self.bandwidth


#: The paper's intra-cluster SAN: 10 µs latency, 80 Mb/s bandwidth.
MYRINET_LIKE = LinkSpec(latency=10e-6, bandwidth=80e6)
#: The paper's inter-cluster link: 150 µs latency, 100 Mb/s bandwidth.
ETHERNET_LIKE = LinkSpec(latency=150e-6, bandwidth=100e6)


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster: its size and its internal SAN link."""

    name: str
    nodes: int
    link: LinkSpec = MYRINET_LIKE

    def __post_init__(self) -> None:
        check_node_count(f"cluster {self.name!r}", self.nodes)


@dataclass
class Topology:
    """A cluster federation.

    ``inter_links`` maps an unordered cluster pair ``(i, j)`` (``i < j``) to
    the :class:`LinkSpec` joining them -- the paper's triangular matrix.  A
    ``default_inter_link`` fills any missing pair.  ``mtbf`` is the
    federation Mean Time Between Failures in seconds (``None`` or ``inf``
    disables failure injection).
    """

    clusters: list[ClusterSpec]
    inter_links: dict = field(default_factory=dict)
    default_inter_link: LinkSpec = ETHERNET_LIKE
    mtbf: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("topology needs at least one cluster")
        n = len(self.clusters)
        normalized = {}
        for pair, link in self.inter_links.items():
            i, j = pair
            if i == j:
                raise ValueError(f"inter-cluster link {pair} joins a cluster to itself")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"inter-cluster link {pair} references unknown cluster")
            normalized[(min(i, j), max(i, j))] = link
        self.inter_links = normalized
        if self.mtbf is not None and not self.mtbf > 0:  # NaN too; inf = no failures
            raise ValueError(f"mtbf must be positive (or None): {self.mtbf}")

    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def total_nodes(self) -> int:
        return sum(c.nodes for c in self.clusters)

    def nodes_in(self, cluster: int) -> int:
        return self.clusters[cluster].nodes

    def all_nodes(self) -> Iterator[NodeId]:
        for ci, spec in enumerate(self.clusters):
            for ni in range(spec.nodes):
                yield NodeId(ci, ni)

    def link_between(self, a: int, b: int) -> LinkSpec:
        """Link spec for traffic between clusters ``a`` and ``b``.

        For ``a == b`` this is the cluster's internal SAN.
        """
        if a == b:
            return self.clusters[a].link
        key = (min(a, b), max(a, b))
        return self.inter_links.get(key, self.default_inter_link)

    def delay(self, src: NodeId, dst: NodeId, size_bytes: int) -> float:
        """One-way transfer delay between two nodes."""
        return self.link_between(src.cluster, dst.cluster).transfer_delay(size_bytes)

    @property
    def failures_enabled(self) -> bool:
        return self.mtbf is not None and math.isfinite(self.mtbf)

    def validate_node(self, node: NodeId) -> None:
        if not (0 <= node.cluster < self.n_clusters):
            raise ValueError(f"unknown cluster in {node}")
        if not (0 <= node.node < self.clusters[node.cluster].nodes):
            raise ValueError(f"unknown node in {node}")


def two_cluster_topology(
    nodes: int = 100,
    mtbf: Optional[float] = None,
) -> Topology:
    """The paper's evaluation topology: 2 clusters of ``nodes`` nodes (§5.2)."""
    return Topology(
        clusters=[
            ClusterSpec("cluster0", nodes, MYRINET_LIKE),
            ClusterSpec("cluster1", nodes, MYRINET_LIKE),
        ],
        inter_links={(0, 1): ETHERNET_LIKE},
        mtbf=mtbf,
    )

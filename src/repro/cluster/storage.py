"""Stable storage by in-cluster neighbour replication (§3.1).

"In order to be able to retrieve CLC data in case of a node failure, each
node records its part of the CLCs, and in the memory of an other node in the
cluster.  Because of this stable storage implementation, only one
simultaneous fault in a cluster is tolerated."

This module is the *accounting and feasibility* model of that scheme: the
actual checkpoint payloads are abstract (sized blobs), but the placement --
each node's state kept locally plus on its ``replication_degree`` ring
successors -- is tracked exactly, so we can answer:

* how many local states does each node hold (§5.4 reports 126 = 63 CLCs × 2
  with degree 1)?
* is a given CLC still recoverable after a set of simultaneous node
  failures (degree k tolerates k faults per cluster, the §7 extension)?
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["StableStorage"]


class StableStorage:
    """Replication placement for one cluster's checkpoint data."""

    def __init__(self, cluster: int, n_nodes: int, replication_degree: int = 1):
        if n_nodes < 1:
            raise ValueError("cluster must have at least one node")
        if replication_degree < 0:
            raise ValueError("replication_degree must be >= 0")
        self.cluster = cluster
        self.n_nodes = n_nodes
        #: effective degree is bounded by the number of *other* nodes
        self.replication_degree = min(replication_degree, n_nodes - 1)
        self.requested_degree = replication_degree

    # ------------------------------------------------------------------
    def replica_holders(self, node: int) -> list:
        """Ring successors holding copies of ``node``'s state."""
        return [
            (node + k) % self.n_nodes
            for k in range(1, self.replication_degree + 1)
        ]

    def holders_of(self, node: int) -> list:
        """All nodes holding ``node``'s state (itself + replicas)."""
        return [node, *self.replica_holders(node)]

    def states_held_by(self, node: int, stored_clcs: int) -> int:
        """Local states in ``node``'s memory given ``stored_clcs`` CLCs.

        Each CLC contributes this node's own state plus one state per
        predecessor that replicates onto it.  §5.4: "each node in the
        federation stores 126 local states (its own 63 local states and
        the ones of one of its neighbor)".
        """
        return stored_clcs * (1 + self.replication_degree)

    # ------------------------------------------------------------------
    def recoverable(self, failed: Iterable[int]) -> bool:
        """Can every node's checkpoint part still be retrieved?

        True iff for each node some holder of its state is alive.  With
        ring replication of degree k this holds for any set of at most k
        failures (and for larger sets unless a node and all its successors
        fail together).
        """
        down = set(failed)
        for node in down:
            if not (0 <= node < self.n_nodes):
                raise ValueError(f"unknown node {node}")
            if all(h in down for h in self.holders_of(node)):
                return False
        return True

    def max_tolerated_faults(self) -> int:
        """Guaranteed number of simultaneous in-cluster faults survived."""
        return self.replication_degree

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<StableStorage c{self.cluster} nodes={self.n_nodes} "
            f"degree={self.replication_degree}>"
        )

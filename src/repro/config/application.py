"""Application file: the synthetic code-coupling workload description.

Per the paper (§5.1): "The application file contains, for each cluster, the
mean computation time for each node, communication patterns between
computations (represented by probabilities between nodes) and the
application total time."

Each application process loops: *compute* for an exponentially distributed
time, then with probability ``send_probabilities[d]`` send one message to a
uniformly chosen node of cluster ``d`` (possibly its own cluster).  The
probabilities for a source cluster may sum to less than 1 -- the remainder
is "no communication this round".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.config.keys import refuse_unknown_keys

__all__ = ["ApplicationConfig", "ClusterAppSpec"]

#: Default application payload size in bytes (the paper does not report one;
#: small control-style messages dominate code-coupling exchanges).
DEFAULT_MESSAGE_SIZE = 1024


@dataclass
class ClusterAppSpec:
    """Workload of the processes hosted by one cluster."""

    mean_compute: float
    #: probability that a finished computation sends to cluster ``d``;
    #: indexed by destination cluster; may be shorter than the federation
    #: (missing entries = 0.0).
    send_probabilities: list[float] = field(default_factory=list)
    message_size: int = DEFAULT_MESSAGE_SIZE

    def __post_init__(self) -> None:
        # Written as `not (in range)` so that NaN, which compares False
        # with everything, is refused too: the application loop's
        # destination lottery relies on a finite, positive weight total.
        if not 0 < self.mean_compute < math.inf:
            raise ValueError(
                f"mean_compute must be positive and finite: {self.mean_compute}"
            )
        if not 0 < self.message_size < math.inf:
            raise ValueError(
                f"message_size must be positive and finite: {self.message_size}"
            )
        total = 0.0
        for i, p in enumerate(self.send_probabilities):
            if not 0 <= p <= 1:
                raise ValueError(f"send_probabilities[{i}] must be in [0, 1]: {p}")
            total += p
        if total > 1.0 + 1e-9:
            raise ValueError(f"send_probabilities sum to {total} > 1")

    def probability_to(self, dst_cluster: int) -> float:
        if 0 <= dst_cluster < len(self.send_probabilities):
            return self.send_probabilities[dst_cluster]
        return 0.0

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterAppSpec":
        refuse_unknown_keys("application cluster", data, (f.name for f in fields(cls)))
        return cls(
            mean_compute=data["mean_compute"],
            send_probabilities=list(data.get("send_probabilities", [])),
            message_size=data.get("message_size", DEFAULT_MESSAGE_SIZE),
        )


@dataclass
class ApplicationConfig:
    """The whole application: one spec per cluster plus the total duration."""

    clusters: list[ClusterAppSpec]
    total_time: float

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("application needs at least one cluster spec")
        if not 0 < self.total_time < math.inf:
            raise ValueError(f"total_time must be positive and finite: {self.total_time}")

    def spec_for(self, cluster: int) -> ClusterAppSpec:
        return self.clusters[cluster]

    def expected_messages(self, src: int, dst: int, nodes: int) -> float:
        """Analytic expectation of the (src, dst) message count.

        Each of ``nodes`` processes completes ``total_time / mean_compute``
        rounds on average, each sending to ``dst`` with the configured
        probability.  Used to calibrate workloads against Table 1.
        """
        spec = self.clusters[src]
        rounds = self.total_time / spec.mean_compute
        return nodes * rounds * spec.probability_to(dst)

    @classmethod
    def from_dict(cls, data: dict) -> "ApplicationConfig":
        refuse_unknown_keys("application", data, (f.name for f in fields(cls)))
        return cls(
            clusters=[ClusterAppSpec.from_dict(c) for c in data["clusters"]],
            total_time=data["total_time"],
        )

"""Timers file: protocol delays.

Per the paper (§5.1): "the timers file contains the delays for the protocol
timers for each cluster (delays between two CLCs, garbage collection, ...)".

A ``clc_period`` of ``None`` means the timer is "set to infinite" (Fig. 7):
the cluster never takes unforced CLCs.  All delays are in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["TimersConfig"]

MINUTE = 60.0
HOUR = 3600.0


def _normalize_period(value: Optional[float], name: str) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, str):
        if value.lower() in ("inf", "infinite", "none"):
            return None
        value = float(value)
    if value == math.inf:
        return None
    if not value > 0:  # NaN and -inf too
        raise ValueError(f"{name} must be positive or infinite: {value}")
    return value


def _require_finite(name: str, value: float, low: float, inclusive: bool = False) -> None:
    """Refuse ``value`` unless it is finite and above ``low`` (or equal to
    it, if ``inclusive``).  Tested as ``not (in range)``, so NaN, which
    compares False with everything, is refused too."""
    if not (low <= value if inclusive else low < value) or value == math.inf:
        bound = ">=" if inclusive else ">"
        raise ValueError(f"{name} must be finite and {bound} {low}: {value}")


@dataclass
class TimersConfig:
    """All protocol timers and delays.

    :param clc_periods: per-cluster delay between *unforced* CLCs
        (``None`` = infinite = never).
    :param gc_period: delay between garbage collections (``None`` = GC off).
    :param failure_detection_delay: time from a node crash to its detection
        (the paper leaves the detector out of scope; this models it as a
        fixed-latency oracle).
    :param checkpoint_restore_time: local time for a node to reinstall a
        saved state during rollback.
    :param node_repair_time: extra downtime of the crashed node before it can
        host its restored process again.
    :param node_state_size: size in bytes of one node's saved state; drives
        replication (stable storage) traffic and storage-cost accounting.
    :param gc_initiator_cluster: cluster whose leader runs the centralized
        garbage collector.
    :param detector: ``"oracle"`` (fixed-latency, the default) or
        ``"heartbeat"`` (simulated liveness probes whose detection latency
        emerges from the two heartbeat parameters).
    :param heartbeat_period: interval between liveness probes.
    :param heartbeat_timeout: silence needed to suspect a node; must
        exceed the period.
    """

    clc_periods: list = field(default_factory=list)
    gc_period: Optional[float] = None
    #: §3.5 "or when a node memory saturates": trigger a GC whenever a
    #: node's checkpoint storage (own states + replicas) exceeds this many
    #: bytes (None disables the pressure trigger)
    gc_memory_threshold: Optional[int] = None
    failure_detection_delay: float = 1.0
    checkpoint_restore_time: float = 0.5
    node_repair_time: float = 5.0
    node_state_size: int = 1_000_000
    gc_initiator_cluster: int = 0
    detector: str = "oracle"
    heartbeat_period: float = 1.0
    heartbeat_timeout: float = 3.5

    def __post_init__(self) -> None:
        self.clc_periods = [
            _normalize_period(p, f"clc_periods[{i}]")
            for i, p in enumerate(self.clc_periods)
        ]
        self.gc_period = _normalize_period(self.gc_period, "gc_period")
        for name in ("failure_detection_delay", "checkpoint_restore_time", "node_repair_time"):
            _require_finite(name, getattr(self, name), 0, inclusive=True)
        _require_finite("node_state_size", self.node_state_size, 0)
        if self.gc_memory_threshold is not None:
            _require_finite("gc_memory_threshold", self.gc_memory_threshold, 0)
        if self.detector not in ("oracle", "heartbeat"):
            raise ValueError(f"unknown detector {self.detector!r}")
        _require_finite("heartbeat_period", self.heartbeat_period, 0)
        _require_finite("heartbeat_timeout", self.heartbeat_timeout, self.heartbeat_period)

    def clc_period_for(self, cluster: int) -> Optional[float]:
        """Unforced-CLC delay for a cluster (``None`` = infinite)."""
        if 0 <= cluster < len(self.clc_periods):
            return self.clc_periods[cluster]
        return None

    def to_dict(self) -> dict:
        return {
            "clc_periods": [p if p is not None else "inf" for p in self.clc_periods],
            "gc_period": self.gc_period if self.gc_period is not None else "inf",
            "gc_memory_threshold": self.gc_memory_threshold,
            "failure_detection_delay": self.failure_detection_delay,
            "checkpoint_restore_time": self.checkpoint_restore_time,
            "node_repair_time": self.node_repair_time,
            "node_state_size": self.node_state_size,
            "gc_initiator_cluster": self.gc_initiator_cluster,
            "detector": self.detector,
            "heartbeat_period": self.heartbeat_period,
            "heartbeat_timeout": self.heartbeat_timeout,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimersConfig":
        return cls(
            clc_periods=list(data.get("clc_periods", [])),
            gc_period=data.get("gc_period"),
            gc_memory_threshold=data.get("gc_memory_threshold"),
            failure_detection_delay=data.get("failure_detection_delay", 1.0),
            checkpoint_restore_time=data.get("checkpoint_restore_time", 0.5),
            node_repair_time=data.get("node_repair_time", 5.0),
            node_state_size=data.get("node_state_size", 1_000_000),
            gc_initiator_cluster=data.get("gc_initiator_cluster", 0),
            detector=data.get("detector", "oracle"),
            heartbeat_period=data.get("heartbeat_period", 1.0),
            heartbeat_timeout=data.get("heartbeat_timeout", 3.5),
        )

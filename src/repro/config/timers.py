"""Timers file: protocol delays.

Per the paper (§5.1): "the timers file contains the delays for the protocol
timers for each cluster (delays between two CLCs, garbage collection, ...)".

A ``clc_period`` of ``None`` means the timer is "set to infinite" (Fig. 7):
the cluster never takes unforced CLCs.  All delays are in seconds.

Two mechanisms have no timer of their own: a crash is reported by a
fixed-latency oracle after ``failure_detection_delay`` (the paper puts the
detector out of scope, §3.4), and garbage collection always starts at
cluster 0's leader.  :meth:`TimersConfig.from_dict` refuses any key that is
not a field, so a misspelt timer fails the load instead of running with
its default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.config.keys import refuse_unknown_keys

__all__ = ["TimersConfig", "normalize_period"]

MINUTE = 60.0
HOUR = 3600.0


def normalize_period(value: Optional[float], name: str) -> Optional[float]:
    """A timer period, ``None`` for an infinite one; refuses anything not > 0."""
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

    def __post_init__(self) -> None:
        self.clc_periods = [
            normalize_period(p, f"clc_periods[{i}]")
            for i, p in enumerate(self.clc_periods)
        ]
        self.gc_period = normalize_period(self.gc_period, "gc_period")
        for name in ("failure_detection_delay", "checkpoint_restore_time", "node_repair_time"):
            _require_finite(name, getattr(self, name), 0, inclusive=True)
        _require_finite("node_state_size", self.node_state_size, 0)
        if self.gc_memory_threshold is not None:
            _require_finite("gc_memory_threshold", self.gc_memory_threshold, 0)

    def clc_period_for(self, cluster: int) -> Optional[float]:
        """Unforced-CLC delay for a cluster (``None`` = infinite)."""
        if 0 <= cluster < len(self.clc_periods):
            return self.clc_periods[cluster]
        return None

    @classmethod
    def from_dict(cls, data: dict) -> "TimersConfig":
        refuse_unknown_keys("timers", data, (f.name for f in fields(cls)))
        return cls(**data)

"""Serving-side observability: request counters and latency percentiles.

Latencies go into a bounded ring per route (recent-window percentiles,
not lifetime -- a warmed-up server should not have its p99 forever
anchored by cold-start compute times).  Everything is cheap enough to
update inline on the event loop; ``snapshot`` does the sorting, and only
when ``/stats`` is actually asked.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["LatencyRing", "ServeStats"]


class LatencyRing:
    """Fixed-size ring of latency samples with percentile readout."""

    def __init__(self, size: int = 4096) -> None:
        self._samples: deque = deque(maxlen=size)

    def observe(self, seconds: float) -> None:
        self._samples.append(seconds)

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, q: float) -> float:
        """q in [0, 100]; nearest-rank over the current window (0.0 if empty)."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def summary(self) -> dict:
        """Percentiles over the recent window; ``window`` is its occupancy."""
        return {
            "window": len(self._samples),
            "p50_ms": round(self.percentile(50) * 1e3, 3),
            "p99_ms": round(self.percentile(99) * 1e3, 3),
        }


class ServeStats:
    """Per-route counters + latency rings, and status-class tallies."""

    def __init__(self, ring_size: int = 4096) -> None:
        self._lock = threading.Lock()
        self._ring_size = ring_size
        self._routes: dict = {}  # route label -> {count, ring}
        self.statuses: dict = {}  # status code -> count
        self.rejected = 0  # 429s issued by admission control
        self.timeouts = 0  # 504s from per-request deadlines

    def observe(self, route: str, status: int, seconds: float) -> None:
        with self._lock:
            entry = self._routes.get(route)
            if entry is None:
                entry = self._routes[route] = {
                    "count": 0,
                    "ring": LatencyRing(self._ring_size),
                }
            entry["count"] += 1
            entry["ring"].observe(seconds)
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status == 429:
                self.rejected += 1
            if status == 504:
                self.timeouts += 1

    def snapshot(self) -> dict:
        with self._lock:
            # ``count`` is the route's lifetime request count; the ring
            # reports how many of them its percentiles cover as ``window``.
            routes = {
                route: {"count": entry["count"], **entry["ring"].summary()}
                for route, entry in sorted(self._routes.items())
            }
            return {
                "routes": routes,
                "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
                "rejected": self.rejected,
                "timeouts": self.timeouts,
            }

"""Statistics collection for simulation runs.

The paper's simulator reports "statistical data, as messages count in
clusters and between each cluster, number of stored CLCs, number of protocol
messages" (§5.1).  This module provides the collectors those reports are
built from:

* :class:`Counter` -- monotonically increasing event counts,
* :class:`Tally` -- streaming mean/variance/min/max of observed values
  (Welford's algorithm, numerically stable),
* :class:`TimeWeighted` -- a gauge integrated over simulated time (e.g.
  number of CLCs currently stored, averaged over the run),
* :class:`Series` -- raw (time, value) samples for plotting figures,
* :class:`StatsRegistry` -- a namespace of the above, snapshotable to a
  plain dict for reporting.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

__all__ = ["Counter", "Series", "StatsRegistry", "Tally", "TimeWeighted"]


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter can only increase; use a Tally for deltas")
        self.value += amount

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class Tally:
    """Streaming statistics over observed values (Welford's algorithm)."""

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max", "total")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 for fewer than 2 samples."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tally {self.name} n={self.count} mean={self.mean:.4g}>"


class TimeWeighted:
    """A gauge whose value is integrated over simulated time.

    ``clock`` is a zero-argument callable returning the current simulated
    time (normally ``lambda: sim.now``), so the collector never holds a
    reference to the whole simulator.
    """

    __slots__ = ("name", "_clock", "_value", "_last_t", "_start_t", "_integral", "max")

    def __init__(self, name: str, clock: Callable[[], float], initial: float = 0.0):
        self.name = name
        self._clock = clock
        self._value = initial
        self._last_t = clock()
        self._start_t = self._last_t
        self._integral = 0.0
        self.max = initial

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        now = self._clock()
        self._integral += self._value * (now - self._last_t)
        self._last_t = now
        self._value = value
        if value > self.max:
            self.max = value

    def time_average(self, now: Optional[float] = None) -> float:
        """Average value over [start, now]."""
        if now is None:
            now = self._clock()
        span = now - self._start_t
        if span <= 0:
            return self._value
        return (self._integral + self._value * (now - self._last_t)) / span

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TimeWeighted {self.name}={self._value}>"


class Series:
    """Raw (time, value) samples, e.g. one point per garbage collection."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"Series {self.name!r}: non-monotonic time {time} < {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Series {self.name} n={len(self)}>"


Metric = Union[Counter, Tally, TimeWeighted, Series]


class StatsRegistry:
    """Namespace of metrics, keyed by hierarchical name.

    Accessors are create-on-first-use so model code never needs to
    pre-declare its metrics::

        stats.counter("net/inter/c0->c1").inc()
        stats.gauge("cluster0/stored_clcs").set(3)
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._metrics: dict[str, Metric] = {}

    def _get(self, name: str, kind: type, *args: object) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = kind(name, *args)
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def tally(self, name: str) -> Tally:
        return self._get(name, Tally)  # type: ignore[return-value]

    def gauge(self, name: str, initial: float = 0.0) -> TimeWeighted:
        return self._get(name, TimeWeighted, self._clock, initial)  # type: ignore[return-value]

    def series(self, name: str) -> Series:
        return self._get(name, Series)  # type: ignore[return-value]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict:
        """Flatten every metric into plain Python values for reporting."""
        out: dict[str, object] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Tally):
                out[name] = {
                    "count": metric.count,
                    "mean": metric.mean,
                    "min": metric.min if metric.count else None,
                    "max": metric.max if metric.count else None,
                    "total": metric.total,
                }
            elif isinstance(metric, TimeWeighted):
                out[name] = {
                    "value": metric.value,
                    "max": metric.max,
                    "time_average": metric.time_average(),
                }
            elif isinstance(metric, Series):
                out[name] = list(zip(metric.times, metric.values))
        return out

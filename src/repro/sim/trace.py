"""Levelled structured tracing.

The paper's simulator "can be compiled with different trace levels.  With the
higher trace level, we can observe each node time-stamped action (sends,
receives, timer interruptions, log searches...)" (§5.1).  We reproduce that
as a runtime trace level instead of a compile-time one.

Trace records are structured (kind + field dict), so tests can assert on
protocol behaviour ("cluster 2 rolled back to SN 3") instead of parsing text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

__all__ = ["TraceLevel", "TraceRecord", "Tracer"]


class TraceLevel(enum.IntEnum):
    """How much detail to record.  Higher records strictly more."""

    NONE = 0      #: record nothing (fastest; statistics still collected)
    PROTOCOL = 1  #: checkpoint/rollback/GC protocol actions
    MESSAGE = 2   #: plus every application message send/receive
    DEBUG = 3     #: plus internal details (timer firings, log searches, ...)


@dataclass(frozen=True)
class TraceRecord:
    """One time-stamped action of one node (or of the federation)."""

    time: float
    level: TraceLevel
    kind: str
    fields: dict = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class Tracer:
    """Collects :class:`TraceRecord` objects up to a configured level."""

    def __init__(self, clock: Callable[[], float], level: TraceLevel = TraceLevel.NONE):
        self._clock = clock
        self.level = level
        self.records: list[TraceRecord] = []

    def enabled(self, level: TraceLevel) -> bool:
        return self.level >= level

    def record(self, level: TraceLevel, kind: str, **fields: Any) -> None:
        """Record an action if the configured level admits it."""
        if self.level >= level:
            self.records.append(TraceRecord(self._clock(), level, kind, fields))

    # convenience wrappers -------------------------------------------------
    def protocol(self, kind: str, **fields: Any) -> None:
        self.record(TraceLevel.PROTOCOL, kind, **fields)

    def message(self, kind: str, **fields: Any) -> None:
        self.record(TraceLevel.MESSAGE, kind, **fields)

    def debug(self, kind: str, **fields: Any) -> None:
        self.record(TraceLevel.DEBUG, kind, **fields)

    # queries ---------------------------------------------------------------
    def find(self, kind: str, **match: Any) -> Iterator[TraceRecord]:
        """Iterate records of the given kind whose fields match ``match``."""
        for rec in self.records:
            if rec.kind != kind:
                continue
            if all(rec.fields.get(k) == v for k, v in match.items()):
                yield rec

    def first(self, kind: str, **match: Any) -> Optional[TraceRecord]:
        return next(self.find(kind, **match), None)

    def count(self, kind: str, **match: Any) -> int:
        return sum(1 for _ in self.find(kind, **match))

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

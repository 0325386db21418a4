"""In-memory LRU hot tier over :class:`~repro.experiments.cache.ResultCache`.

The disk cache is content-addressed, so a key's *value* can never go
stale -- but a serving process still pays a pickle load per hit.  The
hot tier keeps the rendered response bytes for the hottest keys in
memory, bounded by a byte budget, so repeat fetches of popular grid
points never touch disk at all.

Staleness is handled wholesale rather than per-entry: every lookup and
insert carries a *generation* token and a token change flushes the whole
tier.  The tier only compares tokens; its caller decides what moves one.
:class:`~repro.serve.app.ServeApp` holds ``(code-version hash, points it
computed)`` and bumps the count where its own compute tier writes a
point through -- a counter, so no request lists the cache root or stats
a journal shard to learn the token.  A write by *another* process (a
sweep, a ``cache import``) moves nothing, and need not: an entry is the
rendered value of a content-addressed key, the tier never holds a "not
computed yet", and the code hash is fixed per process, so no foreign
write can make an entry stale; a key it adds is simply found on disk on
first ask.

Thread-safe: the serving app computes points in worker threads while the
event loop reads, so every operation takes one plain mutex (critical
sections are dict moves, never I/O).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

__all__ = ["HotTier"]


class HotTier:
    """Byte-bounded LRU of rendered response payloads.

    ``max_bytes <= 0`` disables the tier (every ``get`` is a miss and
    ``put`` a no-op) without callers needing a special case.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024) -> None:
        self.max_bytes = int(max_bytes)
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # key -> payload bytes
        self._generation: Optional[tuple] = None

    def get(self, key: str, generation: tuple) -> Optional[bytes]:
        """Payload for ``key`` if cached *and* current, else ``None``."""
        with self._lock:
            if generation != self._generation:
                self._flush_locked()
                self._generation = generation
                self.misses += 1
                return None
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return payload

    def put(self, key: str, payload: bytes, generation: tuple) -> None:
        if self.max_bytes <= 0 or len(payload) > self.max_bytes:
            return
        with self._lock:
            if generation != self._generation:
                self._flush_locked()
                self._generation = generation
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= len(old)
            self._entries[key] = payload
            self.current_bytes += len(payload)
            while self.current_bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self.current_bytes -= len(evicted)
                self.evictions += 1

    def _flush_locked(self) -> None:
        if self._entries:
            self.invalidations += 1
        self._entries.clear()
        self.current_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """Counters for ``GET /stats`` (a point-in-time copy)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": round(self.hits / lookups, 4) if lookups else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

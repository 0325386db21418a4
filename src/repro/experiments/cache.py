"""Content-addressed on-disk cache for experiment grid points.

A cached entry is keyed by the SHA-256 of ``(experiment name, canonical
JSON of the point's params, code-version hash)``.  The code-version hash
digests every ``.py`` file in the ``repro`` package, so editing any
simulator or experiment source invalidates all cached results -- stale
results can never be served after a code change (cf. *stdchk*'s
checkpoint store, which dedupes by content address for the same reason).

Values are pickled per point: point summaries are plain dicts of
scalars/lists by contract (:mod:`repro.experiments.registry`), so entries
stay small and portable.  Writes are atomic (temp file + rename) so a
killed sweep never leaves a truncated entry behind.  Entries are re-read far
more often than written, so a read costs one key -- one encode of the
params, one copy of a SHA-256 fed the rest of the material once per (code,
experiment) -- and one ``os.open``/``os.read`` to the end; a missing, torn
or unreadable entry is simply a miss.

Cache location: ``--cache-dir`` / constructor argument, else the
``REPRO_CACHE_DIR`` environment variable, else
``~/.cache/hc3i-repro``.

The runner writes each value here as it arrives, whatever backend
executed the point, so a sweep that dies half-way re-runs only its
missing points.  ``record`` keeps a best-effort provenance journal
(``journal.jsonl``) of which worker computed each entry and how long it
took.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import time
from pathlib import Path
from typing import Any, Optional

from repro.atomic import atomic_write

try:  # POSIX advisory locking for the shared provenance journal
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = ["ResultCache", "code_version_hash", "default_cache_dir", "point_key"]

_ENV_VAR = "REPRO_CACHE_DIR"
_READ_CHUNK = 1 << 16  # entries are small; a larger one takes more reads
_code_hash_cache: Optional[str] = None


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hc3i-repro"


def code_version_hash() -> str:
    """SHA-256 over every ``.py`` source file of the ``repro`` package."""
    global _code_hash_cache
    if _code_hash_cache is not None:
        return _code_hash_cache
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    _code_hash_cache = digest.hexdigest()
    return _code_hash_cache


#: what a key hashes, byte for byte ``json.dumps(..., sort_keys=True)``: every
#: cache entry and ``/grid`` answer on disk is addressed by these bytes
_encode_material = json.JSONEncoder(sort_keys=True).encode


@functools.lru_cache(maxsize=256)
def _key_prefix(code_hash: str, experiment: str) -> Any:
    """SHA-256 fed ``{"code": <hash>, "experiment": <name>, "params": ``.

    ``sort_keys`` puts ``code < experiment < params``, so these are the first
    bytes of every key material under this code and experiment; callers
    ``copy()`` the object and never update it.
    """
    head = _encode_material({"code": code_hash, "experiment": experiment})
    return hashlib.sha256(f'{head[:-1]}, "params": '.encode())


def point_key(experiment: str, params: dict, code_hash: Optional[str] = None) -> str:
    """Content address of one grid point: SHA-256(code, experiment, params).

    The key of a point's result-cache entry.  It depends on nothing about
    the attempt, so a requeued point is recomputed and stored exactly where
    its lost attempt's result would have gone.  Only the params are encoded
    per call; the rest of the material is a copied, pre-fed prefix.
    """
    code = code_hash if code_hash is not None else code_version_hash()
    digest = _key_prefix(code, experiment).copy()
    digest.update((_encode_material(params) + "}").encode())
    return digest.hexdigest()


class ResultCache:
    """Pickle store addressed by (experiment, params, code version); :meth:`get`
    is one ``os.open`` and ``os.read`` to EOF of ``<root>/<key[:2]>/<key>.pkl``."""

    def __init__(
        self,
        root: Optional[Path] = None,
        code_hash: Optional[str] = None,
        journal_shards: int = 1,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._root = os.fspath(self.root)  # what :meth:`get` formats a path from
        self.code_hash = code_hash if code_hash is not None else code_version_hash()
        self.journal_shards = max(1, int(journal_shards))
        self.hits = 0
        self.misses = 0

    def key(self, experiment: str, params: dict) -> str:
        """Stable content address of one grid point under the current code."""
        return point_key(experiment, params, self.code_hash)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, experiment: str, params: dict) -> Any:
        """Return the cached value or ``None``; counts hit/miss."""
        key = self.key(experiment, params)
        try:
            # what :meth:`path` names, read without a stat, a Path or a buffer
            fd = os.open(f"{self._root}/{key[:2]}/{key}.pkl", os.O_RDONLY)
            try:
                data = bytearray()
                while chunk := os.read(fd, _READ_CHUNK):
                    data += chunk
            finally:
                os.close(fd)
            value = pickle.loads(data)
        except Exception:
            # no entry is an OSError (as is a directory or a symlink loop), and
            # a truncated/corrupted one can raise nearly anything from the
            # pickle VM (UnpicklingError, ValueError, EOFError, ...); any load
            # failure is simply a cache miss
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, experiment: str, params: dict, value: Any) -> None:
        try:
            atomic_write(
                self.path(self.key(experiment, params)),
                lambda fh: pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL),
            )
        except IsADirectoryError:
            # A directory where the entry belongs is damage that :meth:`get`
            # reads as a miss: it stays, the caller keeps its computed value
            # and the next sweep recomputes the point.  Any other OSError
            # (ENOSPC, ...) is the caller's to see.
            pass

    def record(self, experiment: str, params: dict, host: str, elapsed: float = 0.0) -> None:
        """Append one provenance line: who computed this entry, and how long it took.

        Best-effort and append-only; the journal is documentation, never
        consulted for lookups, so journal I/O errors are swallowed.  The
        ``code`` field records which source version produced the entry.
        """
        self.journal_append(
            [
                {
                    "time": time.time(),
                    "experiment": experiment,
                    "key": self.key(experiment, params),
                    "host": host,
                    "elapsed": round(elapsed, 6),
                    "code": self.code_hash,
                }
            ]
        )

    def journal_append(self, entries: list) -> None:
        """Append entry dicts as journal lines, safely against concurrent writers.

        Two sweeps (or a sweep and ``repro serve``) sharing one cache dir
        may append concurrently; an exclusive ``flock`` plus an
        ``O_APPEND`` write per batch keeps lines from interleaving
        mid-record.  Exception safety is part of the contract: whatever a
        write raises mid-line, the lock is released and the fd closed on
        every path, so a failed appender can never wedge every later one.
        Best-effort like :meth:`record`: I/O errors are swallowed (a torn
        final line from a killed/failed appender is tolerated -- and
        never re-served -- by :meth:`journal_entries`).

        With ``journal_shards > 1`` each entry lands in the shard file its
        cache key hashes to, so concurrent appenders for different keys
        take *different* flocks instead of serializing on one.
        """
        if not entries:
            return
        groups: dict = {}
        for entry in entries:
            key = entry.get("key") if isinstance(entry, dict) else None
            path = self.journal_shard_path(key)
            groups.setdefault(path, []).append(json.dumps(entry, sort_keys=True) + "\n")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return
        for path, lines in groups.items():
            self._locked_append(path, "".join(lines).encode("utf-8"))

    @staticmethod
    def _locked_append(path: Path, blob: bytes) -> None:
        """flock + append ``blob`` to ``path``; fd-safe on every exception path."""
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
        except OSError:
            return
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                offset = 0
                while offset < len(blob):
                    offset += os.write(fd, blob[offset:])
            finally:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:
            pass  # best-effort: a torn line is recovered around, never served
        finally:
            os.close(fd)

    @property
    def journal_path(self) -> Path:
        """Shard 0 of the journal (the whole journal pre-sharding)."""
        return self.root / "journal.jsonl"

    def journal_shard_path(self, key: Optional[str]) -> Path:
        """The shard file an entry for ``key`` is appended to."""
        if self.journal_shards == 1 or not isinstance(key, str) or not key:
            return self.journal_path
        try:
            shard = int(key[:8], 16) % self.journal_shards
        except ValueError:
            shard = 0
        if shard == 0:
            return self.journal_path
        return self.root / f"journal.{shard:02d}.jsonl"

    def journal_paths(self) -> list:
        """Every existing journal shard file, shard 0 first."""
        paths = []
        if self.journal_path.exists():
            paths.append(self.journal_path)
        if self.root.exists():
            paths.extend(sorted(self.root.glob("journal.[0-9][0-9].jsonl")))
        return paths

    def journal_watermark(self) -> int:
        """Total bytes across all journal shards: a cheap, monotonically
        increasing high-water mark.  Any advance means a writer appended
        provenance; ``repro serve`` reports it under ``/stats``."""
        total = 0
        for path in self.journal_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def journal_entries(self) -> list:
        """Parsed provenance journal (all shards merged), oldest first.

        Tolerates damage from an appender killed mid-line or one without
        :meth:`journal_append`'s lock: torn lines are skipped and multiple
        records interleaved onto one physical line are each recovered.
        With a single journal file the file order is preserved exactly;
        across shards, entries merge by their ``time`` field (stable, so
        within-shard order survives).
        """
        per_file = []
        for path in self.journal_paths():
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            per_file.append(_parse_journal_text(text))
        if not per_file:
            return []
        if len(per_file) == 1:
            return per_file[0]
        merged = [entry for entries in per_file for entry in entries]
        merged.sort(key=lambda e: e.get("time", 0.0) if isinstance(e.get("time"), (int, float)) else 0.0)
        return merged

    def journal_by_key(self) -> dict:
        """Latest journal entry per cache key (for provenance lookups)."""
        by_key: dict = {}
        for entry in self.journal_entries():
            key = entry.get("key")
            if isinstance(key, str):
                by_key[key] = entry
        return by_key


def _parse_journal_text(text: str) -> list:
    """Recover every intact JSON record from journal text, oldest first.

    A well-behaved journal is one object per line, but concurrent
    appenders without the lock can concatenate records onto one line or
    tear a record across a crash.  Scan each physical line for *every*
    decodable object; undecodable fragments are skipped.
    """
    decoder = json.JSONDecoder()
    entries = []
    for raw in text.splitlines():
        pos = 0
        while True:
            brace = raw.find("{", pos)
            if brace < 0:
                break
            try:
                obj, end = decoder.raw_decode(raw, brace)
            except json.JSONDecodeError:
                pos = brace + 1
                continue
            if isinstance(obj, dict):
                entries.append(obj)
            pos = end
    return entries

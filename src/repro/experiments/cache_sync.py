"""Federation cache sync: move result-cache entries between sites.

The result cache is content-addressed (*stdchk*-style): an entry's key
already binds experiment name, canonical params, and the code-version
hash of the sources that computed it, so entries are location-independent
and can be copied between federation sites freely -- a lookup can only
ever hit an entry produced by the same code and params.  What sync adds
on top of raw copying:

* **Archives.** ``export_cache`` packs every entry into a single
  ``.tar.gz`` with a manifest (format version, exporting site's code
  hash, per-entry provenance lifted from the journal) -- one file to
  ``scp`` between sites.
* **Provenance travels.** Imported/merged entries get journal lines at
  the destination recording the *original* computing host plus a ``via``
  marker, so ``journal.jsonl`` still answers "who computed this?" after
  a sweep crosses sites.
* **Code-version verification.** Every entry carries the code hash it
  was computed under (from the manifest, or the source journal for
  dir-to-dir merges).  Entries from different sources than the local
  checkout are *skipped and flagged* -- they could never be served
  anyway, so importing them is either an operator error (stale archive)
  or dead weight.  An archive with no acceptable entry is rejected
  outright, before anything is written.  ``allow_mismatch`` overrides
  the skip for deliberate multi-version mirrors.

Entries travel as pickles, exactly as they arrive from SSH/SLURM
workers: only import archives from federation sites you trust (the same
trust running their results implies).
"""

from __future__ import annotations

import io
import json
import re
import tarfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.atomic import atomic_write
from repro.experiments.cache import ResultCache

__all__ = [
    "ARCHIVE_FORMAT",
    "CacheSyncError",
    "SyncReport",
    "export_cache",
    "import_cache",
    "merge_caches",
]

#: bump when the archive layout changes incompatibly
ARCHIVE_FORMAT = 1

_MANIFEST_NAME = "manifest.json"
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class CacheSyncError(RuntimeError):
    """An export/import/merge could not be performed."""


@dataclass
class SyncReport:
    """Outcome of one sync operation, CLI-printable via :meth:`summary`."""

    operation: str
    source: str
    destination: str
    total: int = 0
    #: entries newly written at the destination
    imported: int = 0
    #: entries the destination already had (byte-identical by construction)
    skipped_existing: int = 0
    #: entries whose recorded code hash differs from the local sources
    skipped_mismatch: int = 0
    #: entries imported without a verifiable code hash (dir merges only)
    unverified: int = 0
    #: sample of mismatched keys, for the operator's post-mortem
    mismatched_keys: list = field(default_factory=list)

    def summary(self) -> str:
        text = (
            f"[cache {self.operation}] {self.source} -> {self.destination}: "
            f"{self.imported}/{self.total} entries"
        )
        details = []
        if self.skipped_existing:
            details.append(f"{self.skipped_existing} already present")
        if self.skipped_mismatch:
            details.append(f"{self.skipped_mismatch} skipped (code-version mismatch)")
        if self.unverified:
            details.append(f"{self.unverified} unverified (no journal provenance)")
        if details:
            text += " (" + ", ".join(details) + ")"
        return text


def export_cache(cache: ResultCache, archive: Union[str, Path]) -> SyncReport:
    """Pack every cache entry plus provenance into ``archive`` (.tar.gz).

    The manifest records the exporting site's current code hash and, per
    entry, the journal-known provenance (computing host, experiment,
    elapsed, code hash).  Writing is atomic: the archive appears only
    once complete.
    """
    archive = Path(archive)
    provenance = cache.journal_by_key()
    entries = []
    paths = sorted(cache.root.rglob("*.pkl")) if cache.root.exists() else []

    def write_archive(raw) -> None:
        with tarfile.open(fileobj=raw, mode="w:gz") as tar:
            for path in paths:
                key = path.stem
                if not _KEY_RE.match(key):
                    continue
                info = {"key": key}
                journal = provenance.get(key)
                if journal:
                    for attr in ("experiment", "host", "elapsed", "time"):
                        if attr in journal:
                            info[attr] = journal[attr]
                    if isinstance(journal.get("code"), str):
                        info["code_hash"] = journal["code"]
                entries.append(info)
                tar.add(path, arcname=_member_name(key))
            manifest = {
                "format": ARCHIVE_FORMAT,
                "code_hash": cache.code_hash,
                "created": time.time(),
                "entry_count": len(entries),
                "entries": entries,
            }
            _add_bytes(tar, _MANIFEST_NAME, json.dumps(manifest, indent=2).encode())

    atomic_write(archive, write_archive)
    return SyncReport(
        operation="export",
        source=str(cache.root),
        destination=str(archive),
        total=len(entries),
        imported=len(entries),
    )


def import_cache(
    cache: ResultCache,
    source: Union[str, Path],
    allow_mismatch: bool = False,
) -> SyncReport:
    """Import an exported archive -- or merge a cache *directory* -- into ``cache``.

    Classification happens before any write: if every entry in the
    source carries a code hash different from the local sources (a stale
    archive), the import is rejected and the local cache is untouched.
    Partially mismatched sources import the matching entries and flag
    the rest in the report.
    """
    source = Path(source)
    if source.is_dir():
        return merge_caches(source, cache, allow_mismatch=allow_mismatch)
    return _import_archive(cache, source, allow_mismatch=allow_mismatch)


def merge_caches(
    source_dir: Union[str, Path],
    dest: Union[ResultCache, str, Path],
    allow_mismatch: bool = False,
) -> SyncReport:
    """Merge the cache directory ``source_dir`` into ``dest``.

    Per-entry code hashes come from the source's journal; entries the
    journal never recorded cannot be verified and are imported anyway
    (content addressing makes them inert at worst) but counted as
    ``unverified``.
    """
    source_dir = Path(source_dir)
    if not source_dir.is_dir():
        raise CacheSyncError(f"source cache directory not found: {source_dir}")
    cache = dest if isinstance(dest, ResultCache) else ResultCache(root=Path(dest))
    if source_dir.resolve() == cache.root.resolve():
        raise CacheSyncError(f"cannot merge a cache directory into itself: {source_dir}")
    src = ResultCache(root=source_dir, code_hash=cache.code_hash)
    provenance = src.journal_by_key()

    candidates = []
    for path in sorted(source_dir.rglob("*.pkl")):
        key = path.stem
        if not _KEY_RE.match(key):
            continue
        journal = provenance.get(key, {})
        code = journal.get("code") if isinstance(journal.get("code"), str) else None
        candidates.append((key, code, journal, path.read_bytes))
    return _import_entries(
        cache, "merge", str(source_dir), f"merge:{source_dir}", candidates, allow_mismatch
    )


def _import_archive(cache: ResultCache, archive: Path, allow_mismatch: bool) -> SyncReport:
    if not archive.is_file():
        raise CacheSyncError(f"archive not found: {archive}")
    try:
        tar = tarfile.open(archive, "r:*")
    except (tarfile.TarError, OSError) as exc:
        raise CacheSyncError(f"cannot read archive {archive}: {exc}") from None
    with tar:
        manifest = _read_manifest(tar, archive)
        archive_hash = manifest.get("code_hash")
        if not isinstance(archive_hash, str):
            raise CacheSyncError(f"archive {archive} manifest has no code_hash")
        members = {m.name: m for m in tar.getmembers() if m.isfile()}

        candidates = []
        for info in manifest.get("entries", []):
            key = info.get("key")
            if not isinstance(key, str) or not _KEY_RE.match(key):
                raise CacheSyncError(f"archive {archive} manifest lists invalid key {key!r}")
            member = members.get(_member_name(key))
            if member is None:
                raise CacheSyncError(f"archive {archive} is missing entry {key[:12]}...")
            code = info.get("code_hash", archive_hash)
            candidates.append((key, code, info, _member_reader(tar, member)))
        return _import_entries(
            cache, "import", str(archive), f"import:{archive.name}", candidates, allow_mismatch
        )


# -- shared plumbing ----------------------------------------------------


def _import_entries(
    cache: ResultCache,
    operation: str,
    source: str,
    via: str,
    candidates: list,
    allow_mismatch: bool,
) -> SyncReport:
    """The one import loop behind ``import`` and ``merge``.

    ``candidates`` are ``(key, code hash or None, provenance dict, read)``
    tuples, ``read()`` returning the entry's bytes -- from a cache directory
    and its journal, or from a tar and its manifest.  Classification runs
    over all of them before any write, so a source with no acceptable
    entry is rejected with the destination untouched.
    """
    report = SyncReport(
        operation=operation,
        source=source,
        destination=str(cache.root),
        total=len(candidates),
    )
    accepted = []
    for candidate in candidates:
        key, code, _info, _read = candidate
        if code is not None and code != cache.code_hash and not allow_mismatch:
            report.skipped_mismatch += 1
            if len(report.mismatched_keys) < 8:
                report.mismatched_keys.append(key)
            continue
        accepted.append(candidate)
    if report.total and report.skipped_mismatch == report.total:
        raise CacheSyncError(
            f"{source}: every entry was computed under different repro sources "
            "than this checkout (stale archive, or sync the code first); "
            "nothing was imported -- use --allow-mismatch to import anyway"
        )

    journal_lines = []
    for key, code, info, read in accepted:
        target = cache.path(key)
        if target.exists():
            report.skipped_existing += 1
            continue
        _atomic_copy_bytes(read(), target)
        report.imported += 1
        if code is None:
            report.unverified += 1
        journal_lines.append(_journal_line(key, code, info, via=via))
    cache.journal_append(journal_lines)
    return report


def _member_reader(tar: tarfile.TarFile, member: tarfile.TarInfo):
    def read() -> bytes:
        fileobj = tar.extractfile(member)
        if fileobj is None:  # pragma: no cover - isfile() filtered by the caller
            raise CacheSyncError(f"unreadable archive entry {member.name}")
        return fileobj.read()

    return read


def _journal_line(key: str, code: Optional[str], info: dict, via: str) -> dict:
    line = {
        "time": time.time(),
        "key": key,
        "host": str(info.get("host", "unknown")),
        "via": via,
    }
    if isinstance(info.get("experiment"), str):
        line["experiment"] = info["experiment"]
    if isinstance(info.get("elapsed"), (int, float)):
        line["elapsed"] = info["elapsed"]
    if code is not None:
        line["code"] = code
    return line


def _member_name(key: str) -> str:
    return f"entries/{key[:2]}/{key}.pkl"


def _add_bytes(tar: tarfile.TarFile, name: str, data: bytes) -> None:
    info = tarfile.TarInfo(name)
    info.size = len(data)
    info.mtime = int(time.time())
    tar.addfile(info, io.BytesIO(data))


def _read_manifest(tar: tarfile.TarFile, archive: Path) -> dict:
    try:
        member = tar.extractfile(_MANIFEST_NAME)
    except KeyError:
        member = None
    if member is None:
        raise CacheSyncError(
            f"{archive} is not a repro cache archive (no {_MANIFEST_NAME}); "
            "was it produced by `repro cache export`?"
        )
    try:
        manifest = json.load(member)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CacheSyncError(f"archive {archive} has a corrupt manifest: {exc}") from None
    fmt = manifest.get("format")
    if fmt != ARCHIVE_FORMAT:
        raise CacheSyncError(
            f"archive {archive} uses format {fmt!r}; this build reads format {ARCHIVE_FORMAT}"
        )
    return manifest


def _atomic_copy_bytes(data: bytes, target: Path) -> None:
    atomic_write(target, lambda fh: fh.write(data))

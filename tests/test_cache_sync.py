"""Tests for the result cache's shared-directory safety.

Several writers -- two sweeps, or a sweep and ``repro serve`` -- may
share one cache directory.
The provenance journal must survive concurrent, interleaved and torn
appends, sharded or not, and a cache entry is written atomically: a
writer that fails part-way leaves nothing a reader could open.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.experiments.cache import ResultCache


class TestJournalHardening:
    """Two writers appending into one shared cache dir must not corrupt reads."""

    def test_interleaved_records_on_one_line_are_recovered(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.root.mkdir(parents=True, exist_ok=True)
        a = json.dumps({"key": "a" * 64, "host": "siteA"})
        b = json.dumps({"key": "b" * 64, "host": "siteB"})
        # writer B's line landed inside writer A's missing newline
        cache.journal_path.write_text(a + b + "\n")
        entries = cache.journal_entries()
        assert [e["host"] for e in entries] == ["siteA", "siteB"]

    def test_torn_line_is_skipped_without_losing_neighbours(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.root.mkdir(parents=True, exist_ok=True)
        good = json.dumps({"key": "a" * 64, "host": "siteA"})
        torn = '{"key": "cc", "host": "si'
        cache.journal_path.write_text(f"{good}\n{torn}\n{good}\n")
        entries = cache.journal_entries()
        assert len(entries) == 2
        assert all(e["host"] == "siteA" for e in entries)

    def test_torn_prefix_does_not_mask_a_complete_record(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.root.mkdir(parents=True, exist_ok=True)
        good = json.dumps({"host": "siteB"})
        cache.journal_path.write_text('{"torn": ' + good + "\n")
        # the torn outer record is unrecoverable, but the embedded complete
        # object (the interleaved second writer) is salvaged
        assert cache.journal_entries() == [{"host": "siteB"}]

    def test_concurrent_appenders_produce_only_intact_lines(self, tmp_path):
        cache = ResultCache(tmp_path)
        n_threads, per_thread = 8, 50

        def writer(thread_id: int) -> None:
            for i in range(per_thread):
                cache.journal_append(
                    [{"host": f"t{thread_id}", "i": i, "pad": "x" * 512}]
                )

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        entries = cache.journal_entries()
        assert len(entries) == n_threads * per_thread
        for thread_id in range(n_threads):
            mine = [e["i"] for e in entries if e["host"] == f"t{thread_id}"]
            assert mine == list(range(per_thread))  # per-writer order intact

    def test_record_carries_code_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.record("table1", {"x": 1}, host="w0", elapsed=0.5)
        (entry,) = cache.journal_entries()
        assert entry["code"] == cache.code_hash
        assert entry["host"] == "w0"

    def test_write_failure_releases_lock_and_closes_fd(self, tmp_path, monkeypatch):
        """An os.write that raises mid-line must leave no wedged lock or
        leaked fd behind: the next appender proceeds normally."""
        import os as _os

        cache = ResultCache(tmp_path)
        cache.journal_append([{"host": "ok0"}])

        real_write = _os.write

        def torn_write(fd, blob):
            # write half the line, then fail: simulates ENOSPC mid-record
            real_write(fd, blob[: len(blob) // 2])
            raise OSError("injected: disk full")

        fds_before = len(_os.listdir("/proc/self/fd"))
        monkeypatch.setattr(_os, "write", torn_write)
        cache.journal_append([{"host": "doomed", "pad": "x" * 256}])  # must not raise
        monkeypatch.undo()
        assert len(_os.listdir("/proc/self/fd")) == fds_before  # fd closed

        # the lock was released: a fresh appender is not blocked, and its
        # line is recovered even though it lands after the torn fragment
        cache.journal_append([{"host": "ok1"}])
        hosts = [e["host"] for e in cache.journal_entries()]
        assert "ok0" in hosts and "ok1" in hosts
        assert "doomed" not in hosts  # the torn record is never served

    def test_every_byte_lands_before_the_unlock(self, tmp_path, monkeypatch):
        """A torn journal seen before: a buffered ``with open(path, "ab")`` writer
        unlocked in a ``finally`` that ran before its close flushed, so the
        bytes reached the file outside the lock.  Whatever the file holds
        when the lock drops must be everything the append wrote."""
        import os as _os

        fcntl = pytest.importorskip("fcntl")
        real_flock = fcntl.flock
        sizes_at_unlock = []

        def recording_flock(fd, operation):
            if operation == fcntl.LOCK_UN:
                fileno = fd if isinstance(fd, int) else fd.fileno()
                sizes_at_unlock.append(_os.fstat(fileno).st_size)
            return real_flock(fd, operation)

        cache = ResultCache(tmp_path)
        monkeypatch.setattr(fcntl, "flock", recording_flock)
        cache.journal_append([{"host": f"w{i}", "pad": "x" * 64} for i in range(3)])
        monkeypatch.undo()

        assert sizes_at_unlock == [cache.journal_path.stat().st_size]
        assert len(cache.journal_entries()) == 3

    def test_torn_final_line_from_killed_appender_never_served(self, tmp_path):
        """A crash between write and newline leaves a torn tail; later
        appends land after it and both sides must parse correctly."""
        cache = ResultCache(tmp_path)
        cache.journal_append([{"host": "ok0"}])
        with open(cache.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"host": "torn", "elapsed"')  # killed mid-record
        assert [e["host"] for e in cache.journal_entries()] == ["ok0"]
        cache.journal_append([{"host": "ok1"}])
        hosts = [e["host"] for e in cache.journal_entries()]
        assert hosts == ["ok0", "ok1"]


class TestJournalSharding:
    """journal_shards > 1 splits appends across per-shard flocks while
    journal_entries/journal_by_key still present one merged view."""

    @staticmethod
    def _entry(seed: int, t: float) -> dict:
        key = f"{seed:08x}" + "0" * 56
        return {"key": key, "time": t, "host": f"h{seed}"}

    def test_entries_route_to_distinct_shard_files(self, tmp_path):
        cache = ResultCache(tmp_path, journal_shards=4)
        cache.journal_append([self._entry(s, float(s)) for s in range(8)])
        paths = cache.journal_paths()
        assert len(paths) == 4  # seeds 0..7 mod 4 cover every shard
        assert paths[0] == cache.journal_path  # shard 0 keeps the legacy name

    def test_merged_view_is_time_ordered_across_shards(self, tmp_path):
        cache = ResultCache(tmp_path, journal_shards=4)
        # append in scrambled time order, across different shards
        for seed, t in [(1, 3.0), (2, 1.0), (3, 2.0), (0, 0.5)]:
            cache.journal_append([self._entry(seed, t)])
        hosts = [e["host"] for e in cache.journal_entries()]
        assert hosts == ["h0", "h2", "h3", "h1"]
        assert set(cache.journal_by_key()) == {
            self._entry(s, 0.0)["key"] for s in range(4)
        }

    def test_same_key_always_lands_in_same_shard(self, tmp_path):
        cache = ResultCache(tmp_path, journal_shards=4)
        entry = self._entry(5, 1.0)
        assert cache.journal_shard_path(entry["key"]) == cache.journal_shard_path(
            entry["key"]
        )
        cache.journal_append([entry, {**entry, "time": 2.0}])
        assert len(cache.journal_paths()) == 1  # one shard file touched

    def test_watermark_advances_on_any_shard_append(self, tmp_path):
        cache = ResultCache(tmp_path, journal_shards=4)
        marks = [cache.journal_watermark()]
        for seed in range(4):
            cache.journal_append([self._entry(seed, float(seed))])
            marks.append(cache.journal_watermark())
        assert marks == sorted(marks) and len(set(marks)) == len(marks)

    def test_single_shard_cache_reads_multi_shard_dir(self, tmp_path):
        """A default (journal_shards=1) reader still sees every shard an
        earlier sharded writer produced -- shard count is not persisted."""
        writer = ResultCache(tmp_path, journal_shards=4)
        writer.journal_append([self._entry(s, float(s)) for s in range(8)])
        reader = ResultCache(tmp_path)
        assert len(reader.journal_entries()) == 8


class _TornFile:
    """A file whose every write lands one byte, then the disk fills up."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(bytes(data)[:1])
        raise OSError("disk full")

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


#: the atomic writers: (call, glob of the target it creates under root)
ATOMIC_WRITERS = {
    "ResultCache.put": (
        lambda root: ResultCache(root, code_hash="h").put("t", {"a": 1}, [1, 2, 3]),
        "*.pkl",
    ),
}


@pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
def test_a_writer_that_raises_mid_write_leaves_nothing_behind(
    writer, tmp_path, monkeypatch
):
    """Each goes through ``repro.atomic.atomic_write``: a write that raises
    part-way leaves no ``*.tmp`` and no partial target."""
    write, target = ATOMIC_WRITERS[writer]
    real_fdopen = os.fdopen
    with monkeypatch.context() as patch:
        patch.setattr(
            os, "fdopen", lambda fd, *a, **k: _TornFile(real_fdopen(fd, *a, **k))
        )
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path)
    assert list(tmp_path.rglob("*.tmp")) == []
    assert list(tmp_path.rglob(target)) == []
    write(tmp_path)  # and unbroken, the same call does create its target
    assert len(list(tmp_path.rglob(target))) == 1
    assert list(tmp_path.rglob("*.tmp")) == []

"""Tests for federation cache sync (export/import/merge) and journal hardening.

The acceptance scenario: a sweep finished at site A is exported, carried
to site B, imported, and a re-run at site B is served entirely from the
cache -- with the provenance journal still answering "who computed
this?".  Fault injection: stale archives (different code version) must be
rejected without corrupting the local cache, and the journal must
survive concurrent/interleaved appenders.
"""

from __future__ import annotations

import json
import tarfile
import threading

import pytest

from repro.cli import main
from repro.experiments.cache import ResultCache, code_version_hash
from repro.experiments.cache_sync import (
    CacheSyncError,
    export_cache,
    import_cache,
    merge_caches,
)
from repro.experiments.runner import run_experiment
from tests.conftest import entry_count

TINY = {"nodes": 4, "total_time": 1800.0}
FIG67_TINY = {"delays_min": [5, 15], **TINY, "seed": 2}


def run_site_a_sweep(site_a: ResultCache):
    return run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1, cache=site_a)


class TestExportImportRoundTrip:
    def test_sweep_round_trips_between_two_sites(self, tmp_path):
        """Sweep at A, export, import at B: B's re-run is fully cache-served."""
        site_a = ResultCache(tmp_path / "site-a")
        first = run_site_a_sweep(site_a)
        assert first.executed == 2

        archive = tmp_path / "site-a.tar.gz"
        export_report = export_cache(site_a, archive)
        assert export_report.total == 2
        assert archive.is_file()

        site_b = ResultCache(tmp_path / "site-b")
        import_report = import_cache(site_b, archive)
        assert import_report.imported == 2
        assert import_report.skipped_mismatch == 0

        second = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1, cache=site_b)
        assert second.cache_hits == 2 and second.executed == 0
        assert second.result.render() == first.result.render()

    def test_provenance_travels_with_the_entries(self, tmp_path):
        site_a = ResultCache(tmp_path / "site-a")
        run_site_a_sweep(site_a)
        original = site_a.journal_by_key()

        archive = tmp_path / "site-a.tar.gz"
        export_cache(site_a, archive)
        site_b = ResultCache(tmp_path / "site-b")
        import_cache(site_b, archive)

        imported = site_b.journal_by_key()
        assert set(imported) == set(original)
        for key, entry in imported.items():
            assert entry["host"] == original[key]["host"]  # original computer
            assert entry["via"] == "import:site-a.tar.gz"
            assert entry["code"] == code_version_hash()
            assert entry["experiment"] == "fig6-fig7"

    def test_reimport_skips_existing_entries(self, tmp_path):
        site_a = ResultCache(tmp_path / "site-a")
        run_site_a_sweep(site_a)
        archive = tmp_path / "a.tar.gz"
        export_cache(site_a, archive)
        site_b = ResultCache(tmp_path / "site-b")
        assert import_cache(site_b, archive).imported == 2
        again = import_cache(site_b, archive)
        assert again.imported == 0 and again.skipped_existing == 2

    def test_export_of_empty_cache_is_a_valid_archive(self, tmp_path):
        empty = ResultCache(tmp_path / "empty")
        archive = tmp_path / "empty.tar.gz"
        report = export_cache(empty, archive)
        assert report.total == 0
        imported = import_cache(ResultCache(tmp_path / "dest"), archive)
        assert imported.total == 0


class TestStaleArchiveRejection:
    """Fault injection: archives from out-of-sync sources must be refused."""

    def make_stale_archive(self, tmp_path):
        """An archive whose entries were (per journal) built by other sources."""
        stale_site = ResultCache(tmp_path / "stale-site", code_hash="e" * 64)
        run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1, cache=stale_site)
        archive = tmp_path / "stale.tar.gz"
        export_cache(stale_site, archive)
        return archive

    def test_stale_archive_rejected_without_corrupting_local_cache(self, tmp_path):
        archive = self.make_stale_archive(tmp_path)
        local = ResultCache(tmp_path / "local")
        run_experiment("table1", overrides={**TINY, "seed": 1}, jobs=1, cache=local)
        before_entries = entry_count(local)
        before_journal = local.journal_entries()

        with pytest.raises(CacheSyncError, match="different repro sources"):
            import_cache(local, archive)

        assert entry_count(local) == before_entries
        assert local.journal_entries() == before_journal

    def test_allow_mismatch_imports_anyway(self, tmp_path):
        archive = self.make_stale_archive(tmp_path)
        local = ResultCache(tmp_path / "local")
        report = import_cache(local, archive, allow_mismatch=True)
        assert report.imported == 2
        # inert: stale keys can never be produced by local lookups
        resumed = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1, cache=local)
        assert resumed.cache_hits == 0

    def test_partially_stale_archive_imports_the_fresh_entries(self, tmp_path):
        site_a = ResultCache(tmp_path / "site-a")
        run_site_a_sweep(site_a)
        # doctor one journal line so one entry claims a foreign code hash
        lines = site_a.journal_path.read_text().splitlines()
        doctored = json.loads(lines[0])
        doctored["code"] = "d" * 64
        site_a.journal_path.write_text(
            "\n".join([json.dumps(doctored), *lines[1:]]) + "\n"
        )
        archive = tmp_path / "mixed.tar.gz"
        export_cache(site_a, archive)

        local = ResultCache(tmp_path / "local")
        report = import_cache(local, archive)
        assert report.imported == 1
        assert report.skipped_mismatch == 1
        assert report.mismatched_keys  # flagged for the operator

    def test_not_an_archive_is_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.tar.gz"
        bogus.write_bytes(b"not a tarball")
        with pytest.raises(CacheSyncError, match="cannot read archive"):
            import_cache(ResultCache(tmp_path / "local"), bogus)

    def test_tarball_without_manifest_is_rejected(self, tmp_path):
        payload = tmp_path / "x.txt"
        payload.write_text("hi")
        plain = tmp_path / "plain.tar.gz"
        with tarfile.open(plain, "w:gz") as tar:
            tar.add(payload, arcname="x.txt")
        with pytest.raises(CacheSyncError, match="no manifest.json"):
            import_cache(ResultCache(tmp_path / "local"), plain)

    def test_missing_source_is_rejected(self, tmp_path):
        with pytest.raises(CacheSyncError, match="archive not found"):
            import_cache(ResultCache(tmp_path / "local"), tmp_path / "nope.tar.gz")


class TestMergeBetweenCacheDirs:
    def test_merge_moves_entries_and_provenance(self, tmp_path):
        site_a = ResultCache(tmp_path / "site-a")
        first = run_site_a_sweep(site_a)
        site_b = ResultCache(tmp_path / "site-b")
        report = merge_caches(site_a.root, site_b)
        assert report.imported == 2 and report.unverified == 0

        resumed = run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1, cache=site_b)
        assert resumed.cache_hits == 2
        assert resumed.result.render() == first.result.render()
        hosts = {e["host"] for e in site_b.journal_entries()}
        assert hosts == {"local"}  # site A computed everything locally

    def test_import_of_a_directory_merges(self, tmp_path):
        site_a = ResultCache(tmp_path / "site-a")
        run_site_a_sweep(site_a)
        site_b = ResultCache(tmp_path / "site-b")
        report = import_cache(site_b, site_a.root)
        assert report.operation == "merge"
        assert report.imported == 2

    def test_merge_without_journal_counts_unverified(self, tmp_path):
        site_a = ResultCache(tmp_path / "site-a")
        run_site_a_sweep(site_a)
        site_a.journal_path.unlink()  # e.g. rsync'd entries without the journal
        site_b = ResultCache(tmp_path / "site-b")
        report = merge_caches(site_a.root, site_b)
        assert report.imported == 2 and report.unverified == 2

    def test_merge_skips_foreign_code_entries(self, tmp_path):
        stale = ResultCache(tmp_path / "stale", code_hash="e" * 64)
        run_experiment("fig6-fig7", overrides=FIG67_TINY, jobs=1, cache=stale)
        site_b = ResultCache(tmp_path / "site-b")
        with pytest.raises(CacheSyncError, match="different repro sources"):
            merge_caches(stale.root, site_b)
        assert entry_count(site_b) == 0

    def test_merge_into_itself_is_rejected(self, tmp_path):
        site = ResultCache(tmp_path / "site")
        site.root.mkdir(parents=True)
        with pytest.raises(CacheSyncError, match="into itself"):
            merge_caches(site.root, site)

    def test_merge_missing_source_is_rejected(self, tmp_path):
        with pytest.raises(CacheSyncError, match="not found"):
            merge_caches(tmp_path / "nope", ResultCache(tmp_path / "site"))


class TestCacheCli:
    def test_export_import_round_trip_via_cli(self, tmp_path, capsys):
        site_a = tmp_path / "site-a"
        run_experiment(
            "fig6-fig7", overrides=FIG67_TINY, jobs=1, cache=ResultCache(site_a)
        )
        archive = tmp_path / "a.tar.gz"
        assert main(["cache", "export", str(archive), "--cache-dir", str(site_a)]) == 0
        assert "2/2 entries" in capsys.readouterr().out

        site_b = tmp_path / "site-b"
        assert main(["cache", "import", str(archive), "--cache-dir", str(site_b)]) == 0
        out = capsys.readouterr().out
        assert "[cache import]" in out and "2/2 entries" in out
        assert entry_count(ResultCache(site_b)) == 2

    def test_merge_via_cli(self, tmp_path, capsys):
        site_a = tmp_path / "site-a"
        run_experiment(
            "table1", overrides={**TINY, "seed": 1}, jobs=1, cache=ResultCache(site_a)
        )
        site_b = tmp_path / "site-b"
        assert main(["cache", "merge", str(site_a), str(site_b)]) == 0
        assert "1/1 entries" in capsys.readouterr().out

    def test_stale_import_via_cli_is_a_clean_error(self, tmp_path):
        stale = ResultCache(tmp_path / "stale", code_hash="e" * 64)
        run_experiment("table1", overrides={**TINY, "seed": 1}, jobs=1, cache=stale)
        archive = tmp_path / "stale.tar.gz"
        export_cache(stale, archive)
        with pytest.raises(SystemExit, match="different repro sources"):
            main(["cache", "import", str(archive), "--cache-dir", str(tmp_path / "b")])


class TestJournalHardening:
    """Two hosts appending into one shared cache dir must not corrupt reads."""

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

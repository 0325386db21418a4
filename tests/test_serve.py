"""Tests for the serving layer: hot tier, HTTP API, backpressure, sharding.

Integration tests run the real stack -- ``ServeApp`` behind the
stdlib-asyncio ``HttpServer`` on an ephemeral port -- and talk to it
with ``http.client``, exactly like the benchmark rig.  The acceptance
bar from the issue: hot-tier hits must serve *without touching disk*
(asserted via the disk cache's own hit/miss counters), bodies must be
byte-identical whichever tier answered, and journal shards must not
serialize concurrent appenders on a single flock.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.registry import Experiment
from repro.serve import HotTier, ServeApp, start_in_thread
from repro.serve.stats import LatencyRing, ServeStats
from tests.conftest import entry_count

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None


# --------------------------------------------------------------- hot tier


class TestHotTier:
    GEN = ("code-a", 100)

    def test_miss_then_hit(self):
        tier = HotTier(max_bytes=1024)
        assert tier.get("k1", self.GEN) is None
        tier.put("k1", b"payload", self.GEN)
        assert tier.get("k1", self.GEN) == b"payload"
        assert (tier.hits, tier.misses) == (1, 1)

    def test_lru_eviction_order(self):
        tier = HotTier(max_bytes=30)
        tier.put("a", b"x" * 10, self.GEN)
        tier.put("b", b"x" * 10, self.GEN)
        tier.put("c", b"x" * 10, self.GEN)
        assert tier.get("a", self.GEN) is not None  # a is now most-recent
        tier.put("d", b"x" * 10, self.GEN)  # evicts b, the LRU
        assert tier.get("b", self.GEN) is None
        assert tier.get("a", self.GEN) is not None
        assert tier.get("c", self.GEN) is not None
        assert tier.evictions == 1

    def test_rewriting_a_key_does_not_double_count_bytes(self):
        tier = HotTier(max_bytes=100)
        tier.put("k", b"x" * 40, self.GEN)
        tier.put("k", b"y" * 60, self.GEN)
        assert tier.current_bytes == 60
        assert tier.get("k", self.GEN) == b"y" * 60

    def test_code_hash_change_invalidates_everything(self):
        tier = HotTier(max_bytes=1024)
        tier.put("k", b"old", ("code-a", 100))
        assert tier.get("k", ("code-b", 100)) is None  # new code: flushed
        assert tier.invalidations == 1
        tier.put("k", b"new", ("code-b", 100))
        assert tier.get("k", ("code-b", 100)) == b"new"

    def test_watermark_advance_invalidates_everything(self):
        tier = HotTier(max_bytes=1024)
        tier.put("k", b"old", ("code-a", 100))
        assert tier.get("k", ("code-a", 101)) is None  # journal moved: flushed
        assert tier.invalidations == 1
        assert len(tier) == 0

    def test_oversized_payload_is_not_cached(self):
        tier = HotTier(max_bytes=10)
        tier.put("k", b"x" * 11, self.GEN)
        assert tier.get("k", self.GEN) is None

    def test_zero_budget_disables_the_tier(self):
        tier = HotTier(max_bytes=0)
        tier.put("k", b"x", self.GEN)
        assert tier.get("k", self.GEN) is None

    def test_snapshot_counters_feed_stats(self):
        tier = HotTier(max_bytes=1024)
        tier.put("k", b"x" * 8, self.GEN)
        tier.get("k", self.GEN)
        tier.get("missing", self.GEN)
        snap = tier.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_ratio"] == 0.5
        assert snap["entries"] == 1 and snap["bytes"] == 8


class TestLatencyRing:
    def test_percentiles_nearest_rank(self):
        ring = LatencyRing(size=100)
        for ms in range(1, 101):
            ring.observe(ms / 1e3)
        assert ring.percentile(50) == pytest.approx(0.050, abs=1e-3)
        assert ring.percentile(99) == pytest.approx(0.099, abs=1e-3)
        assert ring.percentile(0) == pytest.approx(0.001)

    def test_empty_ring_reports_zero(self):
        assert LatencyRing().percentile(99) == 0.0

    def test_route_count_outlives_the_ring_window(self):
        """The ring forgets old samples; the route's request count must not."""
        stats = ServeStats(ring_size=4)
        for i in range(10):
            stats.observe("/r", 200, i / 1e3)
        route = stats.snapshot()["routes"]["/r"]
        assert route["count"] == 10
        assert route["window"] == 4
        assert route["p99_ms"] == pytest.approx(9.0)  # percentiles: last 4 only


# ----------------------------------------------------- synthetic experiment

_EXECUTED: list = []


def _sleepy_grid(n_points: int = 5, delay: float = 0.001, **_) -> list:
    return [{"i": i, "delay": delay} for i in range(int(n_points))]


def _sleepy_point(params: dict) -> dict:
    time.sleep(params["delay"])
    _EXECUTED.append(params["i"])
    return {"i": params["i"]}


def _sleepy_reduce(grid: list, points: list):
    return {"n": len(points)}


@pytest.fixture()
def sleepy_experiment():
    """A registered synthetic experiment with controllable point latency."""
    registry.load_all()
    exp = Experiment(
        name="serve-test-sleepy",
        title="synthetic controllable-latency grid for serve tests",
        grid=_sleepy_grid,
        point=_sleepy_point,
        reduce=_sleepy_reduce,
        scaled=False,
    )
    registry.register(exp)
    _EXECUTED.clear()
    yield exp
    registry._REGISTRY.pop(exp.name, None)


# ------------------------------------------------------------- HTTP fixtures


@pytest.fixture()
def app(tmp_path):
    cache = ResultCache(tmp_path / "cache", journal_shards=4)
    app = ServeApp(
        cache=cache,
        hot_mb=8,
        max_inflight=2,
        queue_size=2,
        max_sweeps=1,
        request_timeout=60.0,
    )
    yield app
    app.close()


@pytest.fixture()
def server(app):
    handle = start_in_thread(app)
    yield handle
    handle.stop()


def http_get(handle, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def http_post(handle, path: str, payload: dict):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


#: fast real grid point: table1 at tiny scale with a short horizon
POINT = "/experiments/table1/points?scale=tiny&total_time=600.0"


# --------------------------------------------------------------- enumeration


class TestEnumeration:
    def test_experiments_lists_the_registry(self, server):
        status, _, body = http_get(server, "/experiments")
        assert status == 200
        listed = {e["name"] for e in json.loads(body)["experiments"]}
        assert listed == set(registry.names())

    def test_grid_enumerates_points_with_keys(self, server, app):
        status, _, body = http_get(server, "/experiments/table1/grid?scale=tiny")
        assert status == 200
        payload = json.loads(body)
        assert payload["points"] == len(payload["grid"]) >= 1
        first = payload["grid"][0]
        assert first["key"] == app.cache.key("table1", first["params"])

    def test_unknown_experiment_is_404(self, server):
        status, _, body = http_get(server, "/experiments/nope/points")
        assert status == 404
        assert "unknown experiment" in json.loads(body)["error"]

    def test_unknown_route_is_404(self, server):
        status, _, _ = http_get(server, "/totally/bogus")
        assert status == 404

    def test_unknown_scale_is_400(self, server):
        status, _, _ = http_get(server, "/experiments/table1/points?scale=huge")
        assert status == 400

    def test_unknown_grid_param_is_400(self, server):
        status, _, body = http_get(server, POINT + "&flux_capacitor=1")
        assert status == 400
        assert "flux_capacitor" in json.loads(body)["error"]

    def test_unknown_study_param_is_400(self, server):
        status, _, body = http_get(server, "/experiments/baselines/points?bogus=1")
        assert status == 400
        assert "bogus" in json.loads(body)["error"]

    def test_index_out_of_range_is_400(self, server):
        status, _, _ = http_get(server, POINT + "&index=99")
        assert status == 400

    def test_healthz(self, server):
        status, _, body = http_get(server, "/healthz")
        assert status == 200 and json.loads(body) == {"ok": True}


# ------------------------------------------------------------- tiered fetch


class TestTieredPointFetch:
    def test_cold_fetch_computes_then_hot_tier_serves(self, server, app):
        status, headers, body = http_get(server, POINT)
        assert status == 200
        assert headers["X-Repro-Source"] == "computed"
        payload = json.loads(body)
        assert payload["experiment"] == "table1"
        assert entry_count(app.cache) == 1  # written through to disk

        status2, headers2, body2 = http_get(server, POINT)
        assert status2 == 200
        assert headers2["X-Repro-Source"] == "hot"
        assert body2 == body  # byte-identical across tiers

    def test_hot_hits_do_not_touch_disk(self, server, app):
        http_get(server, POINT)  # compute
        http_get(server, POINT)  # populate/confirm hot
        disk_before = (app.cache.hits, app.cache.misses)
        hot_hits_before = app.hot.hits
        for _ in range(5):
            _, headers, _ = http_get(server, POINT)
            assert headers["X-Repro-Source"] == "hot"
        assert (app.cache.hits, app.cache.misses) == disk_before
        assert app.hot.hits == hot_hits_before + 5

    def test_a_foreign_write_leaves_warmed_keys_hot(self, server, app):
        _, _, body_computed = http_get(server, POINT)
        _, headers, body_hot = http_get(server, POINT)
        assert headers["X-Repro-Source"] == "hot"
        # another process sweeps into the same root: provenance is appended
        # and a new key written.  Nothing this server holds went stale (a
        # key's value cannot change), so the warmed key stays hot ...
        app.cache.journal_append([{"key": "f" * 64, "host": "elsewhere"}])
        foreign = ResultCache(app.cache.root, journal_shards=4)
        exp = registry.get("table1")
        params = exp.build_grid({"nodes": 4, "total_time": 600.0, "seed": 11})[0]
        foreign.put(exp.name, params, exp.point(params))
        foreign.record(exp.name, params, host="elsewhere")
        invalidations = app.hot.invalidations
        _, headers3, body_again = http_get(server, POINT)
        assert headers3["X-Repro-Source"] == "hot"
        assert body_again == body_hot == body_computed
        assert app.hot.invalidations == invalidations
        # ... and the key it added is found on disk on first ask, then hot
        _, headers4, body_disk = http_get(server, POINT + "&seed=11")
        assert headers4["X-Repro-Source"] == "disk"
        assert json.loads(body_disk)["params"] == params
        _, headers5, body_rehot = http_get(server, POINT + "&seed=11")
        assert headers5["X-Repro-Source"] == "hot" and body_rehot == body_disk

    def test_own_computes_flush_the_tier_in_the_pinned_sequence(self, server):
        # what bench/workloads.py::ServePoints.verify pins: two never-seen
        # keys, then the first twice -- this server's own second write-through
        # moved the generation, so the first key comes back from disk once
        first, second = POINT + "&seed=101", POINT + "&seed=102"
        seen = [http_get(server, path) for path in (first, second, first, first)]
        tiers = [headers["X-Repro-Source"] for _, headers, _ in seen]
        assert tiers == ["computed", "computed", "disk", "hot"]
        assert len({seen[i][2] for i in (0, 2, 3)}) == 1  # one body, three tiers

    def test_a_repeated_query_key_is_400_naming_it(self, server, app):
        # ?seed=1&seed=2 would address whichever key the parser kept
        for leaf in ("points", "grid"):
            status, _, body = http_get(
                server, f"/experiments/table1/{leaf}?scale=tiny&seed=1&seed=2"
            )
            assert status == 400
            assert "seed" in json.loads(body)["error"]
            assert "scale" not in json.loads(body)["error"]
        assert entry_count(app.cache) == 0  # nothing was computed for it

    def test_compute_is_recorded_in_the_journal(self, server, app):
        _, headers, body = http_get(server, POINT)
        key = json.loads(body)["key"]
        assert headers["X-Repro-Key"] == key
        entry = app.cache.journal_by_key()[key]
        assert entry["host"] == app.host_label


# ------------------------------------------------- keep-alive per version


class TestConnectionDefault:
    """A client that sends no ``Connection`` header gets its version's default."""

    @staticmethod
    def _exchange(sock, version: str, extra: str = "") -> http.client.HTTPResponse:
        sock.sendall(f"GET /healthz {version}\r\nHost: x\r\n{extra}\r\n".encode())
        response = http.client.HTTPResponse(sock)
        response.begin()
        assert response.status == 200 and json.loads(response.read()) == {"ok": True}
        return response

    def test_http_1_0_without_a_connection_header_is_closed(self, server):
        # ApacheBench's default: told keep-alive, it would wait for an EOF
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            response = self._exchange(sock, "HTTP/1.0")
            assert response.getheader("Connection") == "close"
            assert sock.recv(1) == b""  # and the server did close
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            asked = self._exchange(sock, "HTTP/1.0", "Connection: keep-alive\r\n")
            assert asked.getheader("Connection") == "keep-alive"
            self._exchange(sock, "HTTP/1.0")  # still open for a second request

    def test_http_1_1_without_a_connection_header_is_kept_alive(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            for _ in range(2):  # the second request rides the same connection
                response = self._exchange(sock, "HTTP/1.1")
                assert response.getheader("Connection") == "keep-alive"


# ------------------------------------------------------------- backpressure


class TestBackpressure:
    def test_saturated_compute_tier_rejects_with_retry_after(self, server, app):
        app._inflight = app.max_inflight + app.queue_size
        try:
            status, headers, body = http_get(server, POINT + "&seed=9")
            assert status == 429
            assert headers["Retry-After"] == str(app.retry_after)
            assert "saturated" in json.loads(body)["error"]
        finally:
            app._inflight = 0
        assert app.stats.rejected == 1

    def test_hot_tier_still_serves_while_compute_is_saturated(self, server, app):
        http_get(server, POINT)  # warm one key through compute
        http_get(server, POINT)
        app._inflight = app.max_inflight + app.queue_size
        try:
            status, headers, _ = http_get(server, POINT)
            assert status == 200 and headers["X-Repro-Source"] == "hot"
        finally:
            app._inflight = 0

    def test_saturated_sweep_queue_rejects(self, server, app):
        app._active_sweeps = app.max_sweeps
        try:
            status, headers, _ = http_post(
                server, "/sweeps", {"experiment": "table1"}
            )
            assert status == 429
            assert "Retry-After" in headers
        finally:
            app._active_sweeps = 0

    def test_compute_deadline_returns_504(self, tmp_path, sleepy_experiment):
        cache = ResultCache(tmp_path / "c504")
        app = ServeApp(cache=cache, request_timeout=0.05)
        with start_in_thread(app) as handle:
            status, _, body = http_get(
                handle, "/experiments/serve-test-sleepy/points?index=0&delay=2.0"
            )
            assert status == 504
            assert "exceeded" in json.loads(body)["error"]
            assert app.stats.timeouts == 1
        app.close()


# ------------------------------------------------------------------ sweeps


class TestSweepStreaming:
    def test_sweep_streams_ndjson_to_completion(self, server, app, sleepy_experiment):
        status, headers, body = http_post(
            server,
            "/sweeps",
            {"experiment": "serve-test-sleepy", "overrides": {"n_points": 5}},
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        events = [json.loads(line) for line in body.decode().splitlines()]
        assert events[0]["event"] == "start"
        assert events[-1]["event"] == "done"
        assert events[-1]["points"] == 5 and events[-1]["executed"] == 5
        assert [e["done"] for e in events if e["event"] == "point"] == [1, 2, 3, 4, 5]
        assert entry_count(app.cache) == 5  # sweep populated the shared cache

    def test_second_sweep_is_fully_cache_served(self, server, app, sleepy_experiment):
        spec = {"experiment": "serve-test-sleepy", "overrides": {"n_points": 3}}
        http_post(server, "/sweeps", spec)
        _, _, body = http_post(server, "/sweeps", spec)
        done = json.loads(body.decode().splitlines()[-1])
        assert done["cache_hits"] == 3 and done["executed"] == 0

    def test_sweep_error_is_streamed_not_dropped(self, server):
        status, _, body = http_post(server, "/sweeps", {"experiment": "nope"})
        assert status == 404

    def test_invalid_sweep_spec_is_400(self, server):
        status, _, _ = http_post(server, "/sweeps", {"no": "experiment"})
        assert status == 400

    @pytest.mark.parametrize("jobs", [0, -2, 1.5, "2", True, None])
    def test_sweep_jobs_below_one_or_not_an_integer_is_400(self, server, jobs):
        spec = {"experiment": "table1", "scale": "tiny", "jobs": jobs}
        status, _, body = http_post(server, "/sweeps", spec)
        assert status == 400
        assert '"jobs" must be an integer >= 1' in json.loads(body)["error"]

    def test_a_param_the_grid_rejects_is_400(self, server):
        status, _, body = http_get(server, "/experiments/fig8/points?delays_min=5")
        assert status == 400
        assert "experiment 'fig8'" in json.loads(body)["error"]

    def test_client_disconnect_cancels_the_sweep(
        self, server, app, sleepy_experiment
    ):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request(
            "POST",
            "/sweeps",
            body=json.dumps(
                {
                    "experiment": "serve-test-sleepy",
                    "overrides": {"n_points": 200, "delay": 0.02},
                }
            ),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.readline())["event"] == "start"
        resp.readline()  # one point event, so the sweep is demonstrably live
        # close the response too: http.client defers the real OS close
        # while the response's buffered reader still holds the socket
        resp.close()
        conn.close()  # walk away mid-stream

        deadline = time.monotonic() + 15
        while app._active_sweeps and time.monotonic() < deadline:
            time.sleep(0.05)
        assert app._active_sweeps == 0, "sweep slot never freed after disconnect"
        executed_at_stop = len(_EXECUTED)
        assert executed_at_stop < 200, "sweep ran to completion despite disconnect"
        time.sleep(0.3)  # the runner thread must actually have stopped
        assert len(_EXECUTED) == executed_at_stop


# ------------------------------------------------------------------- stats


class TestStatsEndpoint:
    def test_stats_reports_tiers_admission_and_latency(self, server, app):
        http_get(server, POINT)
        http_get(server, POINT)
        status, _, body = http_get(server, "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["hot_tier"]["hits"] == 1
        assert stats["disk_cache"]["journal_shards"] == 4
        assert stats["disk_cache"]["journal_watermark"] > 0
        assert stats["admission"]["max_inflight"] == app.max_inflight
        route = stats["requests"]["routes"]["/experiments/{name}/points"]
        assert route["count"] == 2
        assert route["p99_ms"] >= route["p50_ms"] >= 0
        assert stats["requests"]["statuses"]["200"] == 2


# ------------------------------------------------------------ shard locking


@pytest.mark.skipif(fcntl is None, reason="flock requires POSIX")
class TestJournalShardConcurrency:
    def test_appenders_on_different_shards_do_not_share_a_lock(self, tmp_path):
        """Hold shard 0's flock: an append bound for shard 1 must complete
        anyway (pre-sharding, every appender serialized on one file)."""
        cache = ResultCache(tmp_path, journal_shards=4)
        shard0_entry = {"key": "00000000" + "0" * 56, "host": "s0"}
        shard1_entry = {"key": "00000001" + "0" * 56, "host": "s1"}
        path0 = cache.journal_shard_path(shard0_entry["key"])
        path1 = cache.journal_shard_path(shard1_entry["key"])
        assert path0 != path1

        cache.root.mkdir(parents=True, exist_ok=True)
        path0.touch()
        blocked = threading.Event()
        unblocked = threading.Event()

        with open(path0, "a") as holder:
            fcntl.flock(holder.fileno(), fcntl.LOCK_EX)

            def append_shard0():
                blocked.set()
                cache.journal_append([shard0_entry])  # blocks on the flock
                unblocked.set()

            t0 = threading.Thread(target=append_shard0, daemon=True)
            t0.start()
            assert blocked.wait(5)

            # while shard 0 is wedged, shard 1 sails through
            start = time.monotonic()
            cache.journal_append([shard1_entry])
            assert time.monotonic() - start < 2.0
            assert [e["host"] for e in cache.journal_entries()] == ["s1"]
            assert not unblocked.is_set(), "shard-0 appender got past a held flock"

            fcntl.flock(holder.fileno(), fcntl.LOCK_UN)
        assert unblocked.wait(5), "shard-0 appender never finished after unlock"
        t0.join(5)
        assert {e["host"] for e in cache.journal_entries()} == {"s0", "s1"}


# ---------------------------------------------------------------- CLI shape


class TestServeCli:
    def test_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.hot_mb == 64.0
        assert args.max_inflight == 4
        assert args.journal_shards == 4

    def test_parser_overrides(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            ["--port", "0", "--hot-mb", "8", "--max-inflight", "2"]
        )
        assert args.port == 0 and args.hot_mb == 8.0 and args.max_inflight == 2

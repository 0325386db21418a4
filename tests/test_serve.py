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

import asyncio
import gc
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from urllib.parse import quote

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments import registry
from repro.experiments.cache import JOURNAL_HOST, ResultCache
from repro.experiments.registry import Experiment
from repro.serve import HotTier, ServeApp, start_in_thread
from repro.serve.stats import LatencyRing, ServeStats
from tests.conftest import REPO_ROOT, entry_count

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

def _sleepy_grid(n_points: int = 5, delay: float = 0.001, **_) -> list:
    return [{"i": i, "delay": delay} for i in range(int(n_points))]


def _sleepy_point(params: dict) -> dict:
    time.sleep(params["delay"])
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

    def test_post_sweeps_is_an_unknown_route(self, server):
        """The service launches no sweeps: ``repro sweep --json`` does.  The
        body is read and dropped, so the connection serves the next request."""
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/sweeps", body=json.dumps({"experiment": "table1"}))
            resp = conn.getresponse()
            assert resp.status == 404
            assert json.loads(resp.read())["error"] == "no route for POST /sweeps"
            conn.request("GET", "/healthz")
            assert conn.getresponse().read() == b'{"ok":true}\n'
        finally:
            conn.close()
        _, _, root = http_get(server, "/")
        assert not any("sweeps" in route for route in json.loads(root)["routes"])

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

    def test_a_param_the_grid_rejects_is_400(self, server):
        status, _, body = http_get(server, "/experiments/fig8/points?delays_min=5")
        assert status == 400
        assert "experiment 'fig8'" in json.loads(body)["error"]

    @pytest.mark.parametrize("route", ["points", "grid"])
    def test_a_deeply_nested_value_is_400_naming_its_key(self, server, route):
        """``json.loads`` raises ``RecursionError`` on it, which once
        answered 500 with a logged traceback."""
        path = f"/experiments/table1/{route}?scale=tiny&seed=" + "[" * 20000
        status, _, body = http_get(server, path)
        assert status == 400
        assert json.loads(body)["error"].startswith("seed: override value '[[[")

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
        assert entry["host"] == JOURNAL_HOST

    def test_healthz_answers_while_a_point_computes(
        self, server, app, sleepy_experiment
    ):
        """The compute tier runs off the event loop: one blocking call made
        inline in an ``async def`` would stall every connection."""
        slow = []
        fetch = threading.Thread(
            target=lambda: slow.append(
                http_get(server, "/experiments/serve-test-sleepy/points?index=0&delay=1.0")
            )
        )
        fetch.start()
        deadline = time.monotonic() + 10
        while app._inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert app._inflight == 1, "the 1 s compute never started"
        started = time.monotonic()
        status, _, _ = http_get(server, "/healthz")
        elapsed = time.monotonic() - started
        fetch.join(timeout=30)
        assert not fetch.is_alive()
        assert status == 200
        assert elapsed < 0.25, f"/healthz took {elapsed:.2f} s behind a 1 s compute"
        ((slow_status, slow_headers, _),) = slow
        assert slow_status == 200 and slow_headers["X-Repro-Source"] == "computed"


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

    def test_stop_closes_an_idle_keep_alive_connection(self, app):
        """``Server.wait_closed()`` waits for open connections since 3.12
        (``stop()`` timed out after 10 s); on 3.11 the connection's task was
        left pending on a closed loop."""
        handle = start_in_thread(app)
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            conn.request("GET", "/experiments")
            assert conn.getresponse().read()  # the connection stays open, idle

            async def tasks() -> set:
                return asyncio.all_tasks() - {asyncio.current_task()}

            serving = asyncio.run_coroutine_threadsafe(tasks(), handle._loop).result(5)
            assert serving  # the idle connection's task, waiting for a request
            start = time.monotonic()
            handle.stop()
            assert time.monotonic() - start < 1.0
            assert all(task.done() for task in serving)
        finally:
            conn.close()


# ------------------------------------------------------- request-reader fuzz

#: request lines no route answers with anything but a 4xx, if they parse at all
_BAD_LINES = [
    b"GET http://[::1/ HTTP/1.1",  # urlsplit raises "Invalid IPv6 URL"
    b"GET / HTTP/2.0",
    b"GET /",
    b"",
    b"GET /nope HTTP/1.1 trailing",
    b"\x00\xff\xfe",
    b"GET /%ff%00 HTTP/1.1",
    b"POST /sweeps HTTP/1.1",  # its body is read and dropped: a 404 or a short read
    b"BREW /healthz HTTP/1.0",
    b"GET /experiments/nope/points?seed=1&seed=2 HTTP/1.1",
]
_HEADER_NAMES = ["Host", "Content-Length", "Connection", "X-Any"]
_HEADER_VALUES = [
    "1_0", "\u0661\u0660", "-1", "+3", "0x10", " 3 ", "3", "0",
    "99999999999", "keep-alive", "close", "",
]
_no_crlf = st.text(max_size=12).filter(lambda t: "\r" not in t and "\n" not in t)


@st.composite
def _bad_requests(draw):
    """(chunks, pause): one malformed request, split for a slow writer."""
    line = draw(st.one_of(
        st.sampled_from(_BAD_LINES),
        st.binary(max_size=60).filter(lambda b: b"\r" not in b and b"\n" not in b),
    ))
    headers = draw(st.lists(
        st.tuples(st.sampled_from(_HEADER_NAMES),
                  st.one_of(st.sampled_from(_HEADER_VALUES), _no_crlf)),
        max_size=4,
    ))
    if draw(st.booleans()):  # the same header twice, disagreeing
        headers += [("Content-Length", "2"), ("Content-Length", "7")]
    if draw(st.integers(0, 9)) == 0:  # a head over the 64 KiB limit
        headers.append(("X-Pad", "a" * (70 * 1024)))
    head = line + b"\r\n" + b"".join(
        f"{name}: {value}\r\n".encode("utf-8") for name, value in headers
    ) + b"\r\n"
    payload = head + draw(st.binary(max_size=8))  # often shorter than promised
    cuts = sorted(draw(st.lists(st.integers(0, len(payload)), max_size=3)))
    chunks = [payload[a:b] for a, b in zip([0, *cuts], [*cuts, len(payload)])]
    return chunks, draw(st.sampled_from([0.0, 0.005]))


#: query keys some of the fuzzed grids take, and a few no grid takes
_QUERY_KEYS = [
    "scale", "seed", "index", "nodes", "total_time", "gc_period", "delays_min",
    "failure_times", "protocol", "bogus",
]
_QUERY_VALUES = ["tiny", "full", "0", "-1", "1e999", "NaN", "true", "[]", "{}", "null", "2"]


@st.composite
def _query_targets(draw):
    """A request target: a grid or point route with an arbitrary query string.

    Points compute, so their route only varies ``seed``/``index`` (a tiny
    ``table1`` point costs about a millisecond); the grid route, which
    resolves overrides the same way but never computes, takes any key.
    ``[`` is sent raw, so a value nested thousands deep fits in the head.
    """
    value = st.one_of(
        st.sampled_from(_QUERY_VALUES),
        st.text(max_size=12),
        st.integers(1, 30000).map(lambda depth: "[" * depth),
    )
    if draw(st.booleans()):
        name = draw(st.sampled_from(["table1", "table2", "fig8", "baselines", "nope"]))
        path, keys = f"/experiments/{name}/grid", st.sampled_from(_QUERY_KEYS)
    else:
        path, keys = "/experiments/table1/points", st.sampled_from(["seed", "index"])
    pairs = draw(st.lists(st.tuples(st.one_of(keys, st.text(max_size=6)), value), max_size=3))
    if path.endswith("points"):
        pairs.insert(0, ("scale", "tiny"))
    query = "&".join(f"{quote(k, safe='')}={quote(v, safe='[]')}" for k, v in pairs)
    return f"{path}?{query}"


class TestRequestReaderFuzz:
    """Whatever a client sends, the answer is a 4xx or a closed socket: no
    handler error, no unhandled exception on the loop, no leaked slot."""

    def test_any_query_string_gets_a_2xx_or_a_4xx(self, server, app):
        recorded: list = []
        server._loop.set_exception_handler(lambda loop, context: recorded.append(context))

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(target=_query_targets())
        def fetch(target):
            request = f"GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(request.encode("ascii"))
                answer = b""
                while data := sock.recv(65536):
                    answer += data
            assert not answer or answer[:10] in (b"HTTP/1.1 2", b"HTTP/1.1 4"), answer[:200]
            assert recorded == []

        fetch()
        assert app._inflight == 0

    def test_malformed_requests_get_a_4xx_or_a_closed_socket(self, server):
        recorded: list = []
        server._loop.set_exception_handler(lambda loop, context: recorded.append(context))

        @settings(max_examples=120, deadline=None, derandomize=True)
        @given(request=_bad_requests())
        @example(request=([b"GET http://[::1/ HTTP/1.1\r\nHost: x\r\n\r\n"], 0.0))
        @example(request=([b"POST /sweeps HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n", b"{}"], 0.0))
        def exchange(request):
            chunks, pause = request
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                try:
                    for chunk in chunks:
                        sock.sendall(chunk)
                        time.sleep(pause)
                    sock.shutdown(socket.SHUT_WR)
                except OSError:
                    pass  # the server dropped us mid-write: a closed socket
                answer = b""
                try:
                    while data := sock.recv(65536):
                        answer += data
                except ConnectionResetError:
                    pass
            gc.collect()  # a task that died with its exception reports it now
            assert not answer or answer.startswith(b"HTTP/1.1 4"), answer[:80]
            assert recorded == []

        exchange()
        admission = json.loads(http_get(server, "/stats")[2])["admission"]
        assert (admission["inflight"], admission["queue_depth"]) == (0, 0)

    @pytest.mark.parametrize("length", ["1_0", "+10", "\u0661\u0660"])
    def test_a_content_length_of_anything_but_ascii_digits_is_malformed(
        self, server, length
    ):
        """``int()`` reads all three as 10; the reader must not."""
        request = f"GET /healthz HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(request.encode("utf-8") + b"0123456789")
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1) == b""  # dropped unanswered, not a 200


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
        assert stats["admission"] == {
            "inflight": 0,
            "max_inflight": app.max_inflight,
            "queue_depth": 0,
            "queue_size": app.queue_size,
        }
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
    def test_ctrl_c_with_an_idle_keep_alive_client_exits_at_once(self, tmp_path):
        """Cancelled, ``Server.serve_forever()`` waits for every open
        connection: from 3.12 ``repro serve`` did not exit while a client
        held one, and 3.11 logged a traceback for the cancelled handler."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            port = int(re.search(r":(\d+) ", proc.stdout.readline()).group(1))
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()  # and the connection stays open
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=5)
            conn.close()
        finally:
            proc.kill()
        assert proc.returncode == 0 and "shutting down" in out
        assert "Traceback" not in err, err

    def test_parser_defaults(self):
        from repro.cli import parser

        args = parser("serve").parse_args([])
        assert args.host == "127.0.0.1"
        assert args.hot_mb == 64.0
        assert args.max_inflight == 4
        assert args.journal_shards == 4

    def test_parser_overrides(self):
        from repro.cli import parser

        args = parser("serve").parse_args(
            ["--port", "0", "--hot-mb", "8", "--max-inflight", "2"]
        )
        assert args.port == 0 and args.hot_mb == 8.0 and args.max_inflight == 2

    def test_hot_tier_can_be_disabled(self):
        from repro.cli import parser

        assert parser("serve").parse_args(["--hot-mb", "0"]).hot_mb == 0.0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-inflight", "0"),
            ("--queue-size", "-3"),
            ("--journal-shards", "0"),
            ("--timeout", "0"),
            ("--timeout", "-1"),
            ("--timeout", "nan"),
            ("--max-inflight", "two"),
        ],
    )
    def test_out_of_range_counts_are_refused(self, flag, value, capsys):
        """Refused at parse time, not clamped (or 504'd) behind the flag."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected" in capsys.readouterr().err

    def test_the_retired_max_sweeps_flag_exits_2_naming_itself(self, capsys):
        from repro.cli import parser

        with pytest.raises(SystemExit) as exc:
            parser("serve").parse_args(["--max-sweeps", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-sweeps 2" in capsys.readouterr().err

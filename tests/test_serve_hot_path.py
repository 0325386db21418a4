"""A deterministic budget for a served point: calls, not seconds.

``repro serve`` is how a grid computed once is read many times, so what a
*hot* request costs bounds how cheap a re-read over HTTP is.  A point
request should do only work that depends on the request: resolve the
grid, derive the key, one hot-tier lookup (or one ``open`` on the disk
tier).  It should not list the cache root, stat a journal shard or
introspect a grid function's signature -- none of that depends on the
request, and all of it grows with the cache, not with the answer.  Host
time is too noisy to gate in a test; the number of calls is exact, so
that is what is budgeted here, as ``tests/test_sweep_hot_path.py`` does
for the warm sweep path.
"""

import asyncio
import cProfile
import dataclasses
import inspect
import os
import pstats

import pytest

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.serve import Request, Response, ServeApp
from repro.serve.httpd import HttpServer

SEEDS = range(1, 5)
REQUESTS = 200


@pytest.fixture(scope="module")
def used_cache(tmp_path_factory) -> ResultCache:
    """A cache as sweeps leave it: every one of the 256 shard directories
    exists and all four journal shards have entries -- what made a request
    dear when each one listed the root and stat-ed the shards."""
    cache = ResultCache(tmp_path_factory.mktemp("used-cache"), journal_shards=4)
    experiment = registry.get("table1")
    for seed in SEEDS:
        params = experiment.build_grid({"nodes": 4, "total_time": 600.0, "seed": seed})[0]
        cache.put(experiment.name, params, experiment.point(params))
    for shard in range(256):
        os.makedirs(cache.root / f"{shard:02x}", exist_ok=True)
    cache.journal_append([{"key": f"{i:08x}" + "0" * 56, "host": "sweep"} for i in range(4)])
    assert len(cache.journal_paths()) == 4
    return cache


def _point_request(seed: int) -> Request:
    # positionally, as bench/ladder.py builds them
    return Request(
        "GET",
        "/experiments/table1/points",
        {"scale": "tiny", "total_time": "600.0", "seed": str(seed)},
        {},
    )


def _profiled_requests(app: ServeApp, tier: str) -> dict:
    """``{("package/file.py", function): calls}`` of ``REQUESTS`` point
    requests that ``tier`` answers; a C builtin's file is ``"~"``."""
    requests = [_point_request(seed) for seed in SEEDS]
    profile = cProfile.Profile()

    async def drive() -> None:
        for request in requests:  # first touch fills whatever tier there is
            await app.handle(request)
        profile.enable()
        try:
            responses = [
                await app.handle(requests[i % len(requests)]) for i in range(REQUESTS)
            ]
        finally:
            profile.disable()
        assert {r.headers["X-Repro-Source"] for r in responses} == {tier}

    try:
        asyncio.run(drive())
    finally:
        app.close()
    calls: dict = {}
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, func), row in stats.items():
        key = ("/".join(filename.split(os.sep)[-2:]), func)
        calls[key] = calls.get(key, 0) + row[1]
    return calls


def _builtin(calls: dict, fragment: str) -> int:
    return sum(n for (file, func), n in calls.items() if file == "~" and fragment in func)


def _in_file(calls: dict, basename: str) -> int:
    return sum(n for (file, _), n in calls.items() if file.endswith("/" + basename))


def test_a_hot_request_stays_inside_its_call_budget(used_cache):
    calls = _profiled_requests(ServeApp(cache=used_cache, hot_mb=8), "hot")
    assert sum(calls.values()) / REQUESTS <= 110  # 97 measured
    # nothing that depends on the cache root's size or the grid's signature
    assert _in_file(calls, "pathlib.py") == _in_file(calls, "inspect.py") == 0
    for syscall in ("posix.stat", "posix.lstat", "posix.scandir", "posix.listdir", "io.open"):
        assert _builtin(calls, syscall) == 0, syscall
    # one lookup per request: what /stats' hit ratio counts
    assert calls[("serve/hot_tier.py", "get")] == REQUESTS
    assert ("serve/hot_tier.py", "put") not in calls


def test_a_disk_read_is_one_open_and_no_listing(used_cache):
    calls = _profiled_requests(ServeApp(cache=used_cache, hot_mb=0), "disk")
    assert _builtin(calls, "io.open") == REQUESTS
    for syscall in ("posix.stat", "posix.lstat", "posix.scandir", "posix.listdir"):
        assert _builtin(calls, syscall) == 0, syscall
    assert _in_file(calls, "inspect.py") == 0
    assert not any("glob" in func for (_file, func) in calls)
    assert sum(calls.values()) / REQUESTS <= 145  # 130 measured


class _StubWriter:
    def __init__(self) -> None:
        self.writes: list = []

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    async def drain(self) -> None:
        pass


def test_a_fixed_length_response_is_one_write_a_streamed_one_several():
    async def never_called(_request):  # pragma: no cover
        raise AssertionError

    async def chunks():
        yield b'{"event":"start"}\n'
        yield b'{"event":"done"}\n'

    server = HttpServer(never_called)
    request = _point_request(1)

    fixed = _StubWriter()
    body = b'{"ok":true}\n'
    keep = asyncio.run(server._write_response(fixed, request, Response(body=body)))
    assert keep is True
    assert len(fixed.writes) == 1  # head and body leave in one send
    head, _, sent_body = fixed.writes[0].partition(b"\r\n\r\n")
    assert sent_body == body and f"Content-Length: {len(body)}".encode() in head

    streamed = _StubWriter()
    keep = asyncio.run(server._write_response(streamed, request, Response(stream=chunks())))
    assert keep is False
    assert len(streamed.writes) >= 2  # the head first, then chunk by chunk
    assert b"".join(streamed.writes).endswith(b'{"event":"start"}\n{"event":"done"}\n')


def test_grid_parameters_are_introspected_once_per_grid_function(monkeypatch):
    def grid_a(nodes: int = 2, seed: int = 0) -> list:
        return [{"nodes": nodes, "seed": seed}]

    def grid_b(delay: float = 1.0, **anything) -> list:
        return [{"delay": delay, **anything}]

    introspected: list = []
    real_signature = inspect.signature

    def counting_signature(fn, *args, **kwargs):
        introspected.append(fn)
        return real_signature(fn, *args, **kwargs)

    monkeypatch.setattr(inspect, "signature", counting_signature)
    exp_a = dataclasses.replace(registry.get("table1"), name="params-once", grid=grid_a)
    for _ in range(5):
        assert exp_a.grid_parameters() == ("nodes", "seed")
        assert registry.resolve_overrides(exp_a, "tiny", sets={"seed": 3}) == {
            "nodes": 4,
            "seed": 3,
        }
        assert exp_a.build_grid({"nodes": 4, "seed": 3, "total_time": 9.0}) == [
            {"nodes": 4, "seed": 3}
        ]
    assert introspected == [grid_a]
    # the memo follows the grid function, not the experiment's name
    exp_b = dataclasses.replace(exp_a, grid=grid_b)
    assert exp_b.name == exp_a.name and exp_b.grid_parameters() is None
    assert exp_a.grid_parameters() == ("nodes", "seed")
    assert introspected == [grid_a, grid_b]


"""The repro serving application: sweep results as a high-QPS service.

Three tiers answer a grid-point fetch, fastest first:

1. **hot tier** -- rendered response bytes in memory
   (:class:`~repro.serve.hot_tier.HotTier`), keyed by the same content
   address as the disk cache, under a generation token this app holds
   and moves only when its own compute tier writes a point through;
2. **disk tier** -- the content-addressed
   :class:`~repro.experiments.cache.ResultCache` shared with the sweep
   CLI, so anything a sweep ever computed is served without recompute;
3. **compute** -- a cache miss runs the experiment's pure ``point``
   function in a worker thread, bounded by admission control, and the
   result is written *through* both tiers on the way out.

The response body is byte-identical whichever tier answered (rendering
is deterministic and the hot tier stores the rendered bytes); the tier
that answered is reported out-of-band in the ``X-Repro-Source`` header
(``hot`` / ``disk`` / ``computed``).

A point request does only work that depends on the request: no tier
lists the cache root or stats a journal shard.  Nothing polls for other
processes' writes (:mod:`~repro.serve.hot_tier` says why none can make
an entry stale); a key they add is found on disk on first ask.

Admission control is deliberately blunt: at most ``max_inflight``
concurrent computes, at most ``queue_size`` more waiting, everything
beyond that is an immediate ``429`` with ``Retry-After`` -- a saturated
lab server should shed load in microseconds, not accumulate a silent
backlog.  Sweeps are bounded separately (``max_sweeps``) since one
sweep is worth thousands of point fetches.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import AsyncIterator, Optional

from repro.experiments import registry
from repro.experiments.backends import create_backend
from repro.experiments.backends.base import Backend, PointTask
from repro.experiments.cache import ResultCache
from repro.experiments.runner import run_experiment
from repro.serve.hot_tier import HotTier
from repro.serve.httpd import HttpServer, Request, Response, json_response
from repro.serve.stats import ServeStats

__all__ = ["ServeApp", "ServerHandle", "start_in_thread"]

#: query keys with route-level meaning; everything else is a grid override
_RESERVED_QUERY = {"scale", "index"}


class _SweepCancelled(RuntimeError):
    """Raised inside the runner thread when the client went away."""


class _InstrumentedBackend(Backend):
    """Wraps a real backend to stream per-point progress and honour cancel.

    ``submit`` is the one chokepoint every executed point passes through,
    so checking the cancel flag there aborts a sweep promptly (the
    runner's submission loop hits it on the very next point) without the
    runner knowing anything about HTTP clients.
    """

    name = "instrumented"

    def __init__(self, inner: Backend, emit, cancelled: threading.Event) -> None:
        self.inner = inner
        self._emit = emit
        self._cancelled = cancelled
        self._done = 0
        self._lock = threading.Lock()

    def submit(self, task: PointTask):
        if self._cancelled.is_set():
            raise _SweepCancelled("client disconnected")
        future = self.inner.submit(task)

        def _on_done(fut) -> None:
            if fut.cancelled() or fut.exception() is not None:
                return
            outcome = fut.result()
            with self._lock:
                self._done += 1
                done = self._done
            self._emit(
                {
                    "event": "point",
                    "done": done,
                    "host": outcome.host,
                    "elapsed": round(outcome.elapsed, 6),
                }
            )

        future.add_done_callback(_on_done)
        return future

    def prepare(self, n_tasks: int) -> None:
        self.inner.prepare(n_tasks)

    def shutdown(self) -> None:
        self.inner.shutdown()


class ServeApp:
    """Routes + tiers + admission control behind one async ``handle``."""

    #: seconds a 429 tells the client to back off (``Retry-After``)
    retry_after = 1

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        hot_mb: float = 64.0,
        max_inflight: int = 4,
        queue_size: int = 16,
        max_sweeps: int = 2,
        request_timeout: float = 300.0,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.hot = HotTier(max_bytes=int(hot_mb * 1024 * 1024))
        self.stats = ServeStats()
        self.max_inflight = max(1, int(max_inflight))
        self.queue_size = max(0, int(queue_size))
        self.max_sweeps = max(1, int(max_sweeps))
        self.request_timeout = request_timeout
        self.started_at = time.time()
        self.host_label = socket.gethostname() or "serve"
        self._inflight = 0  # computes admitted (running or queued)
        #: the hot tier's token: (code hash, points this app computed)
        self._generation = (self.cache.code_hash, 0)
        self._active_sweeps = 0
        self._compute_sem = threading.BoundedSemaphore(self.max_inflight)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight + self.queue_size,
            thread_name_prefix="serve-point",
        )

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------- routing

    async def handle(self, request: Request) -> Response:
        start = time.monotonic()
        route, response = await self._dispatch(request)
        self.stats.observe(route, response.status, time.monotonic() - start)
        return response

    async def _dispatch(self, request: Request) -> tuple:
        path = request.path.rstrip("/") or "/"
        if path == "/experiments" and request.method == "GET":
            return "/experiments", self._list_experiments()
        if path == "/stats" and request.method == "GET":
            return "/stats", self._stats_response()
        if path == "/healthz" and request.method == "GET":
            return "/healthz", json_response({"ok": True})
        if path == "/sweeps" and request.method == "POST":
            return "/sweeps", self._launch_sweep(request)
        parts = [p for p in path.split("/") if p]
        if len(parts) == 3 and parts[0] == "experiments":
            name, leaf = parts[1], parts[2]
            if leaf == "points" and request.method == "GET":
                return "/experiments/{name}/points", await self._fetch_point(name, request)
            if leaf == "grid" and request.method == "GET":
                return "/experiments/{name}/grid", self._enumerate_grid(name, request)
        if path == "/":
            return "/", json_response(
                {
                    "service": "repro-serve",
                    "routes": [
                        "GET /experiments",
                        "GET /experiments/{name}/grid",
                        "GET /experiments/{name}/points",
                        "POST /sweeps",
                        "GET /stats",
                        "GET /healthz",
                    ],
                }
            )
        return "(unmatched)", json_response({"error": f"no route for {request.method} {request.path}"}, status=404)

    # -------------------------------------------------------- GET /experiments

    def _list_experiments(self) -> Response:
        payload = [
            {
                "name": exp.name,
                "title": exp.title,
                "artifact": exp.artifact,
                "scaled": exp.scaled,
                "tags": list(exp.tags),
            }
            for exp in registry.all_experiments()
        ]
        return json_response({"experiments": payload})

    # ------------------------------------------------- grid/point resolution

    def _resolve_grid(self, name: str, request: Request) -> tuple:
        """(experiment, grid, error_response) from route + query params."""
        try:
            exp = registry.get(name)
        except KeyError as exc:
            return None, None, json_response({"error": str(exc)}, status=404)
        if request.repeated:  # which value would address the point?
            error = f"query key given more than once: {', '.join(request.repeated)}"
            return None, None, json_response({"error": error}, status=400)
        try:
            overrides = registry.resolve_overrides(
                exp,
                request.query.get("scale", "tiny"),
                sets=registry.coerce_sets(
                    {k: raw for k, raw in request.query.items() if k not in _RESERVED_QUERY}
                ),
            )
            grid = exp.build_grid(overrides)
        except ValueError as exc:
            return None, None, json_response({"error": str(exc)}, status=400)
        return exp, grid, None

    def _enumerate_grid(self, name: str, request: Request) -> Response:
        exp, grid, error = self._resolve_grid(name, request)
        if error is not None:
            return error
        return json_response(
            {
                "experiment": exp.name,
                "points": len(grid),
                "grid": [
                    {"index": i, "key": self.cache.key(exp.name, params), "params": params}
                    for i, params in enumerate(grid)
                ],
            }
        )

    # --------------------------------------------- GET /experiments/*/points

    async def _fetch_point(self, name: str, request: Request) -> Response:
        exp, grid, error = self._resolve_grid(name, request)
        if error is not None:
            return error
        index_raw = request.query.get("index")
        if index_raw is None:
            if len(grid) != 1:
                return json_response(
                    {
                        "error": f"grid has {len(grid)} points; pick one with index=N "
                        "(enumerate them via .../grid)",
                        "points": len(grid),
                    },
                    status=400,
                )
            index = 0
        else:
            try:
                index = int(index_raw)
            except ValueError:
                return json_response({"error": f"index must be an integer, got {index_raw!r}"}, status=400)
            if not 0 <= index < len(grid):
                return json_response(
                    {"error": f"index {index} out of range for a {len(grid)}-point grid"},
                    status=400,
                )
        params = grid[index]
        key = self.cache.key(exp.name, params)

        payload = self.hot.get(key, self._generation)
        if payload is not None:
            return self._point_response(payload, key, "hot")

        value = self.cache.get(exp.name, params)
        if value is not None:
            payload = self._render_point(exp.name, key, params, value)
            self.hot.put(key, payload, self._generation)
            return self._point_response(payload, key, "disk")

        # compute tier: bounded, timed, written through both caches
        if self._inflight >= self.max_inflight + self.queue_size:
            return self._reject_429("compute capacity saturated")
        self._inflight += 1
        try:
            loop = asyncio.get_running_loop()
            value = await asyncio.wait_for(
                loop.run_in_executor(self._executor, self._compute_point, exp, params),
                timeout=self.request_timeout,
            )
        except asyncio.TimeoutError:
            return json_response(
                {"error": f"point compute exceeded {self.request_timeout:.0f}s"},
                status=504,
            )
        finally:
            self._inflight -= 1
        payload = self._render_point(exp.name, key, params, value)
        # this server's own write-through is the one thing that moves the token
        self._generation = (self.cache.code_hash, self._generation[1] + 1)
        self.hot.put(key, payload, self._generation)
        return self._point_response(payload, key, "computed")

    def _compute_point(self, exp, params: dict):
        """Runs on a worker thread; the semaphore caps true concurrency."""
        with self._compute_sem:
            start = time.perf_counter()
            value = exp.point(params)
            elapsed = time.perf_counter() - start
        self.cache.put(exp.name, params, value)
        self.cache.record(exp.name, params, host=self.host_label, elapsed=elapsed)
        return value

    @staticmethod
    def _render_point(name: str, key: str, params: dict, value) -> bytes:
        body = json.dumps(
            {"experiment": name, "key": key, "params": params, "value": value},
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return body.encode("utf-8") + b"\n"

    @staticmethod
    def _point_response(payload: bytes, key: str, source: str) -> Response:
        return Response(
            status=200,
            body=payload,
            headers={"X-Repro-Source": source, "X-Repro-Key": key},
        )

    def _reject_429(self, reason: str) -> Response:
        return json_response(
            {"error": reason, "retry_after": self.retry_after},
            status=429,
            headers={"Retry-After": str(self.retry_after)},
        )

    # ------------------------------------------------------------ POST /sweeps

    def _launch_sweep(self, request: Request) -> Response:
        try:
            spec = request.json()
        except ValueError as exc:
            return json_response({"error": str(exc)}, status=400)
        if not isinstance(spec, dict) or not isinstance(spec.get("experiment"), str):
            return json_response(
                {"error": 'sweep spec must be a JSON object with an "experiment" name'},
                status=400,
            )
        try:
            exp = registry.get(spec["experiment"])
        except KeyError as exc:
            return json_response({"error": str(exc)}, status=404)
        extra = spec.get("overrides", {})
        if not isinstance(extra, dict):
            return json_response({"error": '"overrides" must be an object'}, status=400)
        try:
            overrides = registry.resolve_overrides(
                exp, spec.get("scale", "tiny"), sets=extra
            )
        except ValueError as exc:
            return json_response({"error": str(exc)}, status=400)
        jobs = spec.get("jobs", 1)
        if type(jobs) is not int or jobs < 1:
            return json_response(
                {"error": f'"jobs" must be an integer >= 1, got {jobs!r}'}, status=400
            )
        backend_name = spec.get("backend", "inprocess")
        if backend_name not in ("inprocess", "local"):
            return json_response(
                {"error": f"serve sweeps support inprocess/local backends, not {backend_name!r}"},
                status=400,
            )
        if self._active_sweeps >= self.max_sweeps:
            return self._reject_429("sweep queue saturated")
        stream = self._sweep_stream(exp, overrides, jobs, backend_name)
        return Response(status=200, content_type="application/x-ndjson", stream=stream)

    async def _sweep_stream(
        self, exp, overrides: dict, jobs: int, backend_name: str
    ) -> AsyncIterator[bytes]:
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        cancelled = threading.Event()
        self._active_sweeps += 1

        def emit(event) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, event)

        def run_sweep() -> None:
            backend = None
            try:
                backend = _InstrumentedBackend(
                    create_backend(backend_name, jobs=jobs), emit, cancelled
                )
                report = run_experiment(
                    exp,
                    overrides=overrides,
                    jobs=jobs,
                    cache=self.cache,
                    backend=backend,
                )
                emit(
                    {
                        "event": "done",
                        "points": report.points,
                        "cache_hits": report.cache_hits,
                        "executed": report.executed,
                        "retries": report.retries,
                        "elapsed": round(report.elapsed, 6),
                    }
                )
            except _SweepCancelled:
                emit({"event": "cancelled"})
            except Exception as exc:  # surfaced to the client, not swallowed
                emit({"event": "error", "error": str(exc)})
            finally:
                if backend is not None:
                    backend.shutdown()
                emit(None)  # stream sentinel

        thread = threading.Thread(target=run_sweep, name="serve-sweep", daemon=True)
        thread.start()
        try:
            yield self._ndjson(
                {"event": "start", "experiment": exp.name, "overrides": overrides}
            )
            while True:
                event = await queue.get()
                if event is None:
                    break
                yield self._ndjson(event)
        finally:
            # normal completion or client disconnect: either way stop the
            # runner (submit raises on the next point) and free the slot
            cancelled.set()
            await loop.run_in_executor(None, thread.join, 10.0)
            self._active_sweeps -= 1

    @staticmethod
    def _ndjson(event: dict) -> bytes:
        return json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"

    # -------------------------------------------------------------- GET /stats

    def _stats_response(self) -> Response:
        payload = {
            "uptime_s": round(time.time() - self.started_at, 3),
            "hot_tier": self.hot.snapshot(),
            "disk_cache": {
                "root": str(self.cache.root),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "journal_shards": self.cache.journal_shards,
                "journal_watermark": self.cache.journal_watermark(),
            },
            "admission": {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "queue_depth": max(0, self._inflight - self.max_inflight),
                "queue_size": self.queue_size,
                "active_sweeps": self._active_sweeps,
                "max_sweeps": self.max_sweeps,
            },
            "requests": self.stats.snapshot(),
        }
        return json_response(payload)


# ---------------------------------------------------------------- embedding


class ServerHandle:
    """A server running on its own thread + event loop (tests, benchmarks)."""

    def __init__(self, app: ServeApp, server: HttpServer, loop, thread) -> None:
        self.app = app
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(10)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10)
        self.app.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> ServerHandle:
    """Start ``app`` on a daemon thread; returns once the port is bound."""
    server = HttpServer(app.handle, host=host, port=port)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="serve-http", daemon=True)
    thread.start()
    if not ready.wait(10):
        raise RuntimeError("server failed to start within 10s")
    return ServerHandle(app, server, loop, thread)

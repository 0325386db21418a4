"""Serve cached grid points as a high-QPS async HTTP service.

``repro serve`` exposes the experiment registry and the
content-addressed result cache over a small stdlib-asyncio HTTP API:
enumeration (``GET /experiments``), memoized grid-point fetches
(``GET /experiments/<name>/points``), and observability
(``GET /stats``).  See ``docs/serve.md`` for the API reference and
backpressure semantics.
"""

from repro.serve.app import ServeApp, ServerHandle, start_in_thread
from repro.serve.hot_tier import HotTier
from repro.serve.httpd import HttpServer, Request, Response, json_response
from repro.serve.stats import LatencyRing, ServeStats

__all__ = [
    "HotTier",
    "HttpServer",
    "LatencyRing",
    "Request",
    "Response",
    "ServeApp",
    "ServeStats",
    "ServerHandle",
    "json_response",
    "start_in_thread",
]

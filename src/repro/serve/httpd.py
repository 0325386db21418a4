"""Minimal stdlib-asyncio HTTP/1.1 server for the serving layer.

Just enough HTTP for the repro API, with zero dependencies beyond
asyncio: request-line + header parsing, ``Content-Length`` bodies,
keep-alive for fixed-length responses, and streamed responses (NDJSON
progress) written incrementally with ``Connection: close`` delimiting.

Deliberately *not* here: TLS, chunked request bodies, multipart,
HTTP/2.  This serves trusted lab traffic (benchmark rigs, notebook
clients, CI smoke jobs), so the parser is strict and small: a malformed
request head or body length drops the connection unanswered.

The streaming contract is the interesting part: a ``Response`` whose
``stream`` is an async iterator is written chunk by chunk with a drain
after each, so a client that disconnects mid-stream surfaces as a write
error / closed transport *inside the generator loop*.  The generator is
then closed (its ``finally`` runs), which is how sweep cancellation on
client disconnect propagates without any out-of-band signalling.
"""

from __future__ import annotations

import asyncio
import json
import logging
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = ["HttpServer", "Request", "Response", "json_response"]

_log = logging.getLogger(__name__)

#: request line + headers must fit in this many bytes
_MAX_HEAD = 64 * 1024
#: largest accepted request body (sweep specs are small JSON)
_MAX_BODY = 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


@dataclass
class Request:
    method: str
    path: str  # decoded path, query string stripped
    query: dict  # decoded query params; a key sent twice keeps its last value
    headers: dict  # lower-cased header name -> value
    body: bytes = b""
    repeated: tuple = ()  # the query keys sent more than once, sorted
    version: str = "HTTP/1.1"

    def json(self):
        """Parse the body as JSON; raises ``ValueError`` on damage."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        except RecursionError:
            raise ValueError("request body is nested too deeply") from None


@dataclass
class Response:
    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)
    #: streamed payload; mutually exclusive with ``body``
    stream: Optional[AsyncIterator[bytes]] = None


def json_response(payload, status: int = 200, headers: Optional[dict] = None) -> Response:
    """Render ``payload`` deterministically (sorted keys, tight separators).

    Determinism matters beyond aesthetics: the hot tier stores rendered
    bytes, so hot-tier and disk-tier answers for the same key are
    byte-identical by construction.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return Response(status=status, body=body + b"\n", headers=dict(headers or {}))


Handler = Callable[[Request], Awaitable[Response]]


class HttpServer:
    """``asyncio.start_server`` wrapper dispatching to one async handler."""

    def __init__(self, handler: Handler, host: str = "127.0.0.1", port: int = 0) -> None:
        self.handler = handler
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=_MAX_HEAD
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                try:
                    response = await self.handler(request)
                except asyncio.CancelledError:
                    raise
                except Exception:
                    _log.exception("handler failed for %s %s", request.method, request.path)
                    response = json_response({"error": "internal server error"}, status=500)
                keep_alive = await self._write_response(writer, request, response)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away or overflowed the head limit: just drop
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[Request]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial in (b"", b"\r\n"):
                return None  # clean EOF between keep-alive requests
            raise
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, version = lines[0].split(" ", 2)
        except ValueError:
            raise asyncio.IncompleteReadError(head, None) from None
        if not version.startswith("HTTP/1."):
            raise asyncio.IncompleteReadError(head, None)
        headers: dict = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            split = urlsplit(target)  # e.g. "http://[::1/": Invalid IPv6 URL
        except ValueError:
            raise asyncio.IncompleteReadError(head, None) from None
        pairs = parse_qsl(split.query, keep_blank_values=True)
        query = dict(pairs)
        repeated: tuple = ()
        if len(query) < len(pairs):
            names = [k for k, _ in pairs]
            repeated = tuple(sorted({k for k in names if names.count(k) > 1}))
        body = b""
        length = headers.get("content-length")
        if length is not None:
            # ASCII digits only: int() would also take "1_0", "+1" and "١٠"
            if not (length.isascii() and length.isdigit()) or int(length) > _MAX_BODY:
                raise asyncio.IncompleteReadError(head, None)
            body = await reader.readexactly(int(length))
        return Request(
            method=method.upper(),
            path=unquote(split.path),
            query=query,
            headers=headers,
            body=body,
            repeated=repeated,
            version=version,
        )

    async def _write_response(
        self, writer: asyncio.StreamWriter, request: Request, response: Response
    ) -> bool:
        """Write ``response``; returns whether the connection may be reused."""
        reason = _REASONS.get(response.status, "Unknown")
        # a client that sent no Connection header gets its version's default
        default = "close" if request.version == "HTTP/1.0" else "keep-alive"
        want_keep_alive = request.headers.get("connection", default).lower() != "close"
        streaming = response.stream is not None
        keep_alive = want_keep_alive and not streaming
        head = [f"HTTP/1.1 {response.status} {reason}"]
        head.append(f"Content-Type: {response.content_type}")
        for name, value in response.headers.items():
            head.append(f"{name}: {value}")
        if streaming:
            head.append("Connection: close")  # EOF delimits the stream
        else:
            head.append(f"Content-Length: {len(response.body)}")
            head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        head_bytes = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
        if streaming:
            assert response.stream is not None
            stream = response.stream
            writer.write(head_bytes)
            try:
                async for chunk in stream:
                    writer.write(chunk)
                    await writer.drain()
            finally:
                close = getattr(stream, "aclose", None)
                if close is not None:
                    await close()
            return False
        writer.write(head_bytes + response.body)  # one write, one send
        await writer.drain()
        return keep_alive

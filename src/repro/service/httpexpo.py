"""Plain-HTTP ``GET /metrics`` exposition for Prometheus-style scraping.

The service protocol is line-delimited JSON over TCP, which is the right
shape for job traffic but the wrong one for scrapers: Prometheus, curl,
and dashboards all speak HTTP.  This module is a deliberately tiny
HTTP/1.0-style responder on asyncio — just enough to serve:

* ``GET /metrics`` — the text exposition (version 0.0.4 content type),
  rendered by the daemon's own callback at each scrape;
* ``GET /healthz`` — ``ok\\n``, for load-balancer liveness probes.

Every response closes its connection (``Connection: close``), which
keeps the handler stateless and lets a scrape land mid-drain: the
daemon keeps the exposition socket open until after job shutdown, so a
draining service is still observable — exactly when observation matters.

No dependencies, no threads: the handler shares the daemon's event loop.
"""

from __future__ import annotations

import asyncio
from typing import Callable

#: Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Most bytes of request head we will buffer before giving up.
_MAX_REQUEST_BYTES = 8192

RenderFn = Callable[[], str]


def _response(
    status: str, body: str, content_type: str = CONTENT_TYPE
) -> bytes:
    payload = body.encode()
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode() + payload


class MetricsHTTPServer:
    """Serve ``GET /metrics`` (and ``/healthz``) over plain HTTP."""

    def __init__(self, host: str, port: int, render: RenderFn) -> None:
        self._host = host
        self._requested_port = port
        self._render = render
        self._server: asyncio.AbstractServer | None = None
        self.port = port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self._host, self._requested_port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = int(sockets[0].getsockname()[1])

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n"), timeout=5.0
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ConnectionError):
            writer.close()
            return
        try:
            response = await self._respond(head[:_MAX_REQUEST_BYTES])
            writer.write(response)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _respond(self, head: bytes) -> bytes:
        try:
            parts = head.decode("latin-1").split()
            method, path = parts[0], parts[1]
        except (IndexError, UnicodeDecodeError):
            return _response("400 Bad Request", "bad request\n")
        path = path.split("?", 1)[0]
        if method not in ("GET", "HEAD"):
            return _response(
                "405 Method Not Allowed", "method not allowed\n"
            )
        if path == "/healthz":
            body = "ok\n"
        elif path == "/metrics":
            body = self._render()
        else:
            return _response("404 Not Found", "not found\n")
        if method == "HEAD":
            # Same head (incl. Content-Length), empty body.
            full = _response("200 OK", body)
            return full[: full.index(b"\r\n\r\n") + 4]
        return _response("200 OK", body)


__all__ = ["CONTENT_TYPE", "MetricsHTTPServer", "RenderFn"]

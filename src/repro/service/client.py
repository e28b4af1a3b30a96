"""Blocking client for the repro service (used by the CLI and tests).

One TCP connection, synchronous request/response over the line protocol.
``submit(..., wait=True)`` passes the ``accepted`` frame and then every
progress event (``queued`` / ``started`` / ``requeued``) to an optional
callback as they arrive, and returns the final result; ``submit_retry``
additionally honors the server's ``queue_full`` (and the cluster
front's ``quota``) backpressure by sleeping out a *jittered* multiple of
the advertised ``retry_after`` and resubmitting, which is the polite
way to drive the service at saturation without synchronized clients
thundering-herd-ing a recovering daemon.

Transport or server-side failures surface as
:class:`repro.errors.ServiceError` with the machine-readable ``code``
(``queue_full``, ``quota``, ``draining``, ``timeout``, ``worker_crash``,
``job_error``, ``bad_request``, ``backend_unavailable``) so callers can
branch without string matching.
"""

from __future__ import annotations

import random
import socket
import time
from types import TracebackType
from typing import Any, Callable

from repro.errors import ServiceError
from repro.service.protocol import (
    JobSpec,
    JSONDict,
    Request,
    Response,
    decode_response,
    encode,
)


class ServiceClient:
    """Synchronous client for one ``repro serve`` daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7341,
        timeout: float = 600.0,
        jitter: random.Random | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._file: Any = None
        self._seq = 0
        self._jitter = jitter if jitter is not None else random.Random()

    # -- connection management --------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as exc:
                raise ServiceError(
                    f"cannot connect to service at "
                    f"{self.host}:{self.port}: {exc}"
                ) from None
            self._sock = sock
            self._file = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # -- low-level I/O ----------------------------------------------------------

    def _next_id(self) -> str:
        self._seq += 1
        return f"r{self._seq}"

    def _send(self, request: Request) -> None:
        self.connect()
        assert self._sock is not None
        try:
            self._sock.sendall(encode(request))
        except OSError as exc:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            ) from None

    def _read_response(self) -> Response:
        assert self._file is not None
        line = self._file.readline()
        if not line:
            raise ServiceError("connection closed by service")
        return decode_response(line)

    def request(self, request: Request) -> Response:
        """Send one request and return its first (non-event) response."""
        self._send(request)
        return self._read_response()

    @staticmethod
    def _raise_on_error(response: Response) -> Response:
        if response.type == "error":
            raise ServiceError(
                response.error or "service error",
                code=response.code,
                retry_after=response.retry_after,
            )
        return response

    # -- high-level operations --------------------------------------------------

    def ping(self) -> bool:
        """Liveness probe; True when the service answers ``pong``."""
        try:
            return self.request(
                Request(type="ping", id=self._next_id())
            ).type == "pong"
        except (ServiceError, OSError):
            return False

    def submit(
        self,
        kind: str,
        payload: JSONDict | None = None,
        *,
        priority: int = 0,
        timeout: float | None = None,
        wait: bool = True,
        on_event: Callable[[Response], None] | None = None,
    ) -> Response:
        """Submit one job.

        With ``wait`` (default), blocks through progress events until the
        ``result`` response and returns it; otherwise returns the
        ``accepted`` response (poll with :meth:`status`).  While it
        waits, ``on_event`` sees the ``accepted`` frame and then each
        progress event, in wire order.  Raises :class:`ServiceError` on rejection or a
        failed job.
        """
        spec = JobSpec(
            kind=kind,
            payload=payload or {},
            priority=priority,
            timeout=timeout,
        )
        request = Request(
            type="submit", id=self._next_id(), job=spec, wait=wait
        )
        self._send(request)
        response = self._raise_on_error(self._read_response())
        if not wait:
            return response
        while response.type != "result":
            if on_event is not None:
                on_event(response)
            response = self._raise_on_error(self._read_response())
        if response.ok:
            return response
        raise ServiceError(
            response.error or "job failed",
            code=response.code,
            retry_after=response.retry_after,
        )

    def _retry_sleep_seconds(self, retry_after: float | None) -> float:
        """Jittered backoff for one ``queue_full``/``quota`` rejection.

        The server hands every rejected client the same EWMA-derived
        ``retry_after``, so un-jittered clients resubmit in lockstep and
        thundering-herd a recovering daemon — each wave refills the queue
        at once and most of the herd bounces again.  Drawing uniformly
        from ``[0.5, 1.5) * retry_after`` decorrelates the waves while
        keeping the mean at the server's hint.
        """
        base = retry_after if retry_after else 0.25
        return base * (0.5 + self._jitter.random())

    def submit_retry(
        self,
        kind: str,
        payload: JSONDict | None = None,
        *,
        priority: int = 0,
        timeout: float | None = None,
        max_attempts: int = 5,
        on_event: Callable[[Response], None] | None = None,
    ) -> Response:
        """:meth:`submit`, sleeping out ``queue_full``/``quota``
        backpressure with jittered backoff."""
        last: ServiceError | None = None
        for _ in range(max_attempts):
            try:
                return self.submit(
                    kind,
                    payload,
                    priority=priority,
                    timeout=timeout,
                    on_event=on_event,
                )
            except ServiceError as exc:
                if exc.code not in ("queue_full", "quota"):
                    raise
                last = exc
                time.sleep(self._retry_sleep_seconds(exc.retry_after))
        assert last is not None
        raise last

    def status(self, job_id: str | None = None) -> Response:
        """One job's state (``job_id``) or the service-wide summary."""
        return self._raise_on_error(
            self.request(
                Request(type="status", id=self._next_id(), job_id=job_id)
            )
        )

    def metrics_text(self) -> str:
        """The raw ``/metrics`` text exposition."""
        response = self._raise_on_error(
            self.request(Request(type="metrics", id=self._next_id()))
        )
        return response.text or ""

    def metric_value(self, line_prefix: str) -> float:
        """Convenience: the value of the first metric line matching a prefix."""
        for line in self.metrics_text().splitlines():
            if line.startswith(line_prefix):
                return float(line.rsplit(None, 1)[-1])
        return 0.0


__all__ = ["ServiceClient"]

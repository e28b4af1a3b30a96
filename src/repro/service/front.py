"""The job front: what the daemon and the cluster front tier both do.

A :class:`JobFront` owns everything between a client's TCP connection
and the place a job runs:

* the listener and request dispatch (``ping``/``metrics``/``status``/
  ``submit``) and the optional HTTP ``GET /metrics`` exposition;
* admission — draining, per-client token-bucket quotas, payload
  normalisation, single-flight coalescing and the shared result-store
  lookup;
* the job records (:class:`JobRecord`), job ids and the bounded history
  of finished jobs;
* event and result fan-out to every waiting connection, and store
  publication of cacheable results;
* the drain: admitted jobs get ``drain_grace`` seconds, then every job
  still queued or running ends with ``code="draining"``.

Where a job runs is the business of one :class:`Executor`: the local
worker pool (:class:`repro.service.server.LocalExecutor`) or the ring of
backend daemons (:class:`repro.service.cluster.ClusterExecutor`).
:class:`~repro.service.server.ReproService` and
:class:`~repro.service.cluster.ClusterFront` are a front plus one of
them.

Single-flight coalescing: a submission whose normalised payload digests
to the key of a job already queued or running attaches to that job
instead of starting a duplicate, so identical concurrent requests cost
one execution and every waiter gets the same result.  Finished jobs
leave the key table, so later repeats start afresh (and are then
typically served from the store or the run cache).
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Protocol

from repro.errors import ProtocolError, ServiceError
from repro.service import jobs as job_registry
from repro.service.httpexpo import MetricsHTTPServer
from repro.service.metrics import JobMetrics
from repro.service.protocol import (
    JobSpec,
    JSONDict,
    Request,
    Response,
    decode_request,
    encode,
)
from repro.service.store import ResultStore

#: Longest a drain waits for waiting connections to write the results
#: it just sent them (a client that stops reading must not stall exit).
_FLUSH_SECONDS = 1.0


@dataclass(frozen=True)
class FrontConfig:
    """Knobs every front has (all exposed as ``repro serve`` flags).

    ``quota_rate`` is per-client submissions per second with
    ``quota_burst`` headroom (0 = no quota).  ``metrics_port``
    additionally serves the exposition over plain HTTP ``GET /metrics``
    (0 = pick a free port; None = TCP-protocol ``metrics`` only).
    """

    host: str = "127.0.0.1"
    port: int = 7341
    default_timeout: float = 300.0
    drain_grace: float = 30.0
    history_limit: int = 512
    store_dir: str | None = None
    quota_rate: float = 0.0
    quota_burst: int = 8
    metrics_port: int | None = None


class TokenBucket:
    """Per-client token buckets: ``rate`` tokens/s refill, ``burst`` cap.

    ``rate <= 0`` disables quotas.  Buckets are keyed by the same client
    identity the fair queue uses, so a client that floods the front runs
    its own bucket dry without touching anyone else's admission."""

    def __init__(self, rate: float, burst: int):
        self.rate = rate
        self.burst = max(1, burst)
        self._buckets: dict[str, tuple[float, float]] = {}

    def allow(self, client: str) -> bool:
        if self.rate <= 0:
            return True
        now = time.monotonic()
        tokens, stamp = self._buckets.get(client, (float(self.burst), now))
        tokens = min(float(self.burst), tokens + (now - stamp) * self.rate)
        if tokens >= 1.0:
            self._buckets[client] = (tokens - 1.0, now)
            return True
        self._buckets[client] = (tokens, now)
        return False

    def retry_after(self, client: str) -> float:
        """Seconds until the client's bucket holds one token again."""
        if self.rate <= 0:
            return 0.0
        tokens, _ = self._buckets.get(client, (float(self.burst), 0.0))
        return round(max(0.05, (1.0 - tokens) / self.rate), 3)


@dataclass
class JobRecord:
    """One job's state, shared by every submission coalesced onto it.

    ``payload`` is the normalised payload and ``key`` its coalesce
    digest.  ``backend`` names the cluster backend the job last ran on
    (None on a daemon).  ``requeues`` counts re-executions after a
    worker crash or a backend failure.
    """

    job_id: str
    spec: JobSpec
    payload: JSONDict
    key: str
    client: str
    submitted_at: float
    state: str = "queued"
    attempts: int = 0
    requeues: int = 0
    backend: str | None = None
    result: JSONDict | None = None
    error: str | None = None
    error_code: str | None = None
    retry_after: float | None = None
    subscribers: list[tuple[str, asyncio.Queue[Response]]] = field(
        default_factory=list
    )

    @property
    def live(self) -> bool:
        return self.state in ("queued", "running")

    @property
    def cacheable(self) -> bool:
        """Whether the result is deterministic work the store keeps."""
        return (
            self.spec.kind in job_registry.CACHEABLE_KINDS
            and not self.payload.get("no_cache")
        )

    def result_response(self, request_id: str) -> Response:
        return Response(
            type="result",
            id=request_id,
            job_id=self.job_id,
            ok=self.error is None,
            value=self.result,
            error=self.error,
            code=self.error_code,
            retry_after=self.retry_after,
            attempts=self.attempts,
            backend=self.backend,
        )

    def status_response(self, request_id: str) -> Response:
        return Response(
            type="status",
            id=request_id,
            job_id=self.job_id,
            stage=self.state,
            attempts=self.attempts,
            ok=None if self.live else not self.error,
            value=self.result,
            error=self.error,
            code=self.error_code,
            backend=self.backend,
        )


class Executor(Protocol):
    """Where admitted jobs run.

    The executor reports every outcome back through
    ``front._finish`` and every lifecycle event through
    ``front._publish_event``; the front does all bookkeeping."""

    async def start(self, front: JobFront) -> None:
        """Begin executing (spawn workers, connect backends)."""

    def submit(self, record: JobRecord) -> None:
        """Take one admitted job; raise :class:`ServiceError` with a
        ``code`` (and ``retry_after``) to reject it instead."""

    async def cancel(self) -> None:
        """Stop every job still executing (the front finishes them)."""

    async def close(self, drain: bool) -> None:
        """Release workers or backend links after :meth:`cancel`."""

    def status_fields(self) -> JSONDict:
        """Executor-specific fields of the ``status`` summary."""

    async def render_metrics(self) -> str:
        """The full text exposition of this front."""


class JobFront:
    """Admission, job records, fan-out and drain over one executor."""

    def __init__(
        self,
        config: FrontConfig,
        executor: Executor,
        metrics: JobMetrics,
        store: ResultStore | None,
        *,
        id_prefix: str,
        client_prefix: str,
    ):
        self.config = config
        self.executor = executor
        self.metrics = metrics
        self.store = store
        self.quota = TokenBucket(config.quota_rate, config.quota_burst)
        self.port = config.port
        self.http: MetricsHTTPServer | None = None
        self._id_prefix = id_prefix
        self._client_prefix = client_prefix
        self._jobs: dict[str, JobRecord] = {}
        self._inflight_keys: dict[str, JobRecord] = {}
        self._job_seq = 0
        self._conn_seq = 0
        self._streams = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: asyncio.Server | None = None
        self._started_at = 0.0

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Start the executor and bind the listener (resolves port 0)."""
        self._started_at = time.monotonic()
        await self.executor.start(self)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets
        if sockets:
            self.port = sockets[0].getsockname()[1]
        if self.config.metrics_port is not None:
            self.http = MetricsHTTPServer(
                self.config.host,
                self.config.metrics_port,
                self.executor.render_metrics,
            )
            await self.http.start()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the front; with ``drain``, let admitted jobs finish first.

        New submissions are rejected the moment draining starts.  Queued
        and running jobs get up to ``drain_grace`` seconds; every job
        still unfinished then ends with ``code="draining"``, sent to each
        of its waiters, and the executor releases its workers or links.
        """
        if self._draining:
            return
        self._draining = True
        self.metrics.draining.set(1)
        deadline = time.monotonic() + self.config.drain_grace
        while drain and self._inflight_keys and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        await self.executor.cancel()
        for record in list(self._inflight_keys.values()):
            self._finish(
                record,
                error="service drained before the job finished",
                code="draining",
            )
        deadline = time.monotonic() + _FLUSH_SECONDS
        while self._streams and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await self.executor.close(drain)
        if self.store is not None:
            with contextlib.suppress(OSError):
                self.store.flush_stats()
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(OSError):
                await self._server.wait_closed()
        # The exposition socket outlives the drain on purpose: a scrape
        # that lands mid-drain still sees the dying front's final state.
        if self.http is not None:
            await self.http.close()
        self._stopped.set()

    # -- admission --------------------------------------------------------------

    def _reject(
        self,
        request: Request,
        code: str,
        error: str,
        retry_after: float | None = None,
    ) -> Response:
        self.metrics.jobs_rejected.inc(reason=code)
        return Response(
            type="error",
            id=request.id,
            code=code,
            error=error,
            retry_after=retry_after,
        )

    def _submit(
        self, request: Request, client: str
    ) -> tuple[JobRecord, bool] | Response:
        """Admit one submission; returns the record or an error response."""
        assert request.job is not None
        spec = request.job
        if self._draining:
            return self._reject(
                request, "draining", "service is draining; submit rejected"
            )
        if not self.quota.allow(client):
            return self._reject(
                request,
                "quota",
                f"client {client} exceeded its submission quota",
                self.quota.retry_after(client),
            )
        try:
            payload = job_registry.normalize(spec.kind, spec.payload)
        except ProtocolError as exc:
            return self._reject(request, "bad_request", str(exc))
        key = job_registry.coalesce_key(spec.kind, payload)
        existing = self._inflight_keys.get(key)
        if existing is not None:
            self.metrics.jobs_coalesced.inc()
            return existing, True
        self._job_seq += 1
        record = JobRecord(
            job_id=f"{self._id_prefix}{self._job_seq:06d}",
            spec=spec,
            payload=payload,
            key=key,
            client=client,
            submitted_at=time.monotonic(),
        )
        stored = self._store_lookup(record)
        if stored is None:
            try:
                self.executor.submit(record)
            except ServiceError as exc:
                return self._reject(
                    request, exc.code or "rejected", str(exc), exc.retry_after
                )
            self._inflight_keys[key] = record
        self._jobs[record.job_id] = record
        self._trim_history()
        self.metrics.jobs_submitted.inc(kind=spec.kind)
        if stored is not None:
            self._finish(record, result=stored, from_store=True)
        return record, False

    def _store_lookup(self, record: JobRecord) -> JSONDict | None:
        """Shared-store result for an eligible submission, else None."""
        if self.store is None or not record.cacheable:
            return None
        value = self.store.get(record.spec.kind, record.key)
        self.metrics.record_store_op("hits" if value is not None else "misses")
        return value

    def _trim_history(self) -> None:
        """Drop the oldest *finished* jobs beyond ``history_limit``
        (reading records oldest first, only until enough are found)."""
        excess = len(self._jobs) - self.config.history_limit
        if excess <= 0:
            return
        finished = (jid for jid, rec in self._jobs.items() if not rec.live)
        for job_id in list(islice(finished, excess)):
            del self._jobs[job_id]

    # -- outcomes ---------------------------------------------------------------

    def _finish(
        self,
        record: JobRecord,
        *,
        result: JSONDict | None = None,
        error: str | None = None,
        code: str | None = None,
        retry_after: float | None = None,
        from_store: bool = False,
    ) -> None:
        """Terminal transition: count it, store a cacheable result, and
        send the result to every waiter.

        A job finishes once: an execution that ends after the drain has
        already finished its job is ignored.
        """
        if not record.live:
            return
        record.state = "failed" if error else "done"
        record.result = result
        record.error = error
        record.error_code = code
        record.retry_after = retry_after
        kind = record.spec.kind
        outcome = code if code else ("store" if from_store else "ok")
        self.metrics.jobs_completed.inc(kind=kind, outcome=outcome)
        if self._inflight_keys.get(record.key) is record:
            del self._inflight_keys[record.key]
        if error is None:
            self.metrics.job_seconds.observe(
                time.monotonic() - record.submitted_at, kind=kind
            )
            if (
                not from_store
                and result is not None
                and self.store is not None
                and record.cacheable
            ):
                self.store.put(kind, record.key, result)
                self.metrics.store_ops.inc(op="stores")
                self.store.flush_stats()
        for request_id, inbox in record.subscribers:
            inbox.put_nowait(record.result_response(request_id))
        record.subscribers.clear()

    def _publish_event(self, record: JobRecord, stage: str) -> None:
        for request_id, inbox in record.subscribers:
            inbox.put_nowait(
                Response(
                    type="event",
                    id=request_id,
                    job_id=record.job_id,
                    stage=stage,
                    attempts=record.attempts,
                    backend=record.backend,
                )
            )

    # -- connection handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_seq += 1
        client = f"{self._client_prefix}{self._conn_seq}"
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = decode_request(line)
                except ProtocolError as exc:
                    writer.write(
                        encode(
                            Response(
                                type="error",
                                id="?",
                                code="bad_request",
                                error=str(exc),
                            )
                        )
                    )
                    await writer.drain()
                    continue
                await self._handle_request(request, client, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(OSError):
                writer.close()

    async def _handle_request(
        self, request: Request, client: str, writer: asyncio.StreamWriter
    ) -> None:
        if request.type == "ping":
            reply = Response(type="pong", id=request.id)
        elif request.type == "metrics":
            reply = Response(
                type="metrics",
                id=request.id,
                text=await self.executor.render_metrics(),
            )
        elif request.type == "status":
            reply = self._status_response(request)
        else:
            await self._handle_submit(request, client, writer)
            return
        writer.write(encode(reply))
        await writer.drain()

    async def _handle_submit(
        self, request: Request, client: str, writer: asyncio.StreamWriter
    ) -> None:
        # The cluster front forwards the real submitter's identity.
        outcome = self._submit(request, request.client or client)
        if isinstance(outcome, Response):
            writer.write(encode(outcome))
            await writer.drain()
            return
        record, coalesced = outcome
        inbox: asyncio.Queue[Response] | None = None
        if request.wait and record.live:
            inbox = asyncio.Queue()
            record.subscribers.append((request.id, inbox))
        writer.write(
            encode(
                Response(
                    type="accepted",
                    id=request.id,
                    job_id=record.job_id,
                    coalesced=coalesced,
                    stage=record.state,
                    backend=record.backend,
                )
            )
        )
        await writer.drain()
        if not request.wait:
            return
        if inbox is None:  # a store hit: the result already exists
            writer.write(encode(record.result_response(request.id)))
            await writer.drain()
            return
        self._streams += 1
        try:
            while True:
                response = await inbox.get()
                writer.write(encode(response))
                await writer.drain()
                if response.type == "result":
                    return
        finally:
            self._streams -= 1

    def _status_response(self, request: Request) -> Response:
        if request.job_id is not None:
            record = self._jobs.get(request.job_id)
            if record is None:
                return Response(
                    type="error",
                    id=request.id,
                    code="unknown_job",
                    error=f"unknown job id {request.job_id!r}",
                )
            return record.status_response(request.id)
        summary: JSONDict = {
            "draining": self._draining,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "jobs_by_state": dict(
                Counter(record.state for record in self._jobs.values())
            ),
            **self.executor.status_fields(),
            "metrics": self.metrics.snapshot(),
            "store": None if self.store is None else self.store.snapshot(),
        }
        return Response(type="status", id=request.id, value=summary)


async def cancel_all(tasks: Iterable[asyncio.Task[None] | None]) -> None:
    """Cancel every task (None entries are skipped) and wait for each."""
    for task in [task for task in tasks if task is not None]:
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task


@contextlib.contextmanager
def signal_handlers(
    loop: asyncio.AbstractEventLoop, service: Any
) -> Iterator[None]:
    """Install SIGTERM/SIGINT -> ``service.shutdown(drain=True)`` (best
    effort); shared by the daemon and the cluster front.

    The drain task is held here until it finishes: the event loop keeps
    only weak references to tasks, so an unreferenced drain task can be
    garbage-collected while it waits, and the process never stops.
    """
    draining: set[asyncio.Task[None]] = set()

    def _trigger() -> None:
        task = loop.create_task(service.shutdown(drain=True))
        draining.add(task)
        task.add_done_callback(draining.discard)

    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, _trigger)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        yield
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)


async def serve_front(front: JobFront, detail: str, *notes: str) -> None:
    """Run ``front`` until SIGTERM/SIGINT completes a graceful drain.

    Tooling (cluster backend spawning, the tests) reads the port from
    the tail of the first startup line, so the ``notes`` and the metrics
    port follow on lines of their own.
    """
    await front.start()
    host = front.config.host
    print(
        f"repro-serve: listening on {host}:{front.port} ({detail})",
        flush=True,
    )
    for note in notes:
        print(f"repro-serve: {note}", flush=True)
    if front.http is not None:
        print(
            f"repro-serve: metrics on {host}:{front.http.port}",
            flush=True,
        )
    with signal_handlers(asyncio.get_running_loop(), front):
        await front.wait_stopped()
    print("repro-serve: drained, bye", flush=True)


__all__ = [
    "Executor",
    "FrontConfig",
    "JobFront",
    "JobRecord",
    "TokenBucket",
    "cancel_all",
    "serve_front",
    "signal_handlers",
]

"""The daemon: one ``repro serve`` process over a forked worker pool.

A :class:`ReproService` owns everything between a client's TCP
connection and the worker process a job runs in:

* the listener and request dispatch (``ping``/``metrics``/``status``/
  ``submit``) and the optional HTTP ``GET /metrics`` exposition;
* admission — draining, per-host token-bucket quotas, payload
  normalisation, single-flight coalescing and the shared result-store
  lookup;
* the fair priority queue, its dispatcher and the worker pool;
* the job records (:class:`JobRecord`), job ids and the bounded history
  of finished jobs;
* event and result fan-out to every waiting connection, and store
  publication of cacheable results;
* the drain: admitted jobs get ``drain_grace`` seconds, then every job
  still queued or running ends with ``code="draining"``.

One event loop owns all bookkeeping (queue, job table, metrics); worker
processes own all simulation.  The dispatcher pops the fair priority
queue only when a worker slot is free, so queue *order* — priority, then
per-client round robin — decides who runs next, not task-spawn races.

Single-flight coalescing: a submission whose normalised payload digests
to the key of a job already queued or running attaches to that job
instead of starting a duplicate, so identical concurrent requests cost
one execution and every waiter gets the same result.  Finished jobs
leave the key table, so later repeats start afresh (and are then
typically served from the store or the run cache).

Job lifecycle::

    submit -> queued -> running -> done
                 ^         |-> failed          (error/timeout/2nd crash)
                 +--- requeued (worker crash, at most once)
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from repro.errors import ProtocolError
from repro.service import jobs as job_registry
from repro.service.httpexpo import MetricsHTTPServer
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    JobSpec,
    JSONDict,
    Request,
    Response,
    decode_request,
    encode,
)
from repro.service.queue import FairPriorityQueue, QueueFullError
from repro.service.store import ResultStore
from repro.service.workers import (
    JobFailedError,
    JobTimeoutError,
    WorkerCrashError,
    WorkerPool,
)

#: Longest a drain waits for waiting connections to write the results
#: it just sent them (a client that stops reading must not stall exit).
_FLUSH_SECONDS = 1.0


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon knobs (all exposed as ``repro serve`` flags).

    ``quota_rate`` is per-host submissions per second with
    ``quota_burst`` headroom (0 = no quota).  ``metrics_port``
    additionally serves the exposition over plain HTTP ``GET /metrics``
    (0 = pick a free port; None = TCP-protocol ``metrics`` only).
    ``store_dir`` attaches the daemon to a shared result store, so
    completed results are served before forking a worker (None = off).
    ``age_seconds`` enables priority aging in the fair queue (None =
    off).
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
    workers: int = 2
    queue_depth: int = 64
    cache_dir: str | None = None
    age_seconds: float | None = None


class TokenBucket:
    """Per-host token buckets: ``rate`` tokens/s refill, ``burst`` cap.

    ``rate <= 0`` disables quotas.  Buckets are keyed by the peer host,
    not the connection, so a client that reconnects keeps its bucket and
    a host that floods the daemon runs only its own bucket dry.  A bucket
    that has refilled to ``burst`` decides exactly like a fresh one, so
    it is dropped: the table holds only hosts that submitted within the
    last ``burst / rate`` seconds."""

    def __init__(self, rate: float, burst: int):
        self.rate = rate
        self.burst = max(1, burst)
        self._buckets: dict[str, tuple[float, float]] = {}

    def _tokens(self, host: str, now: float) -> float:
        tokens, stamp = self._buckets.get(host, (float(self.burst), now))
        return min(float(self.burst), tokens + (now - stamp) * self.rate)

    def allow(self, host: str) -> bool:
        if self.rate <= 0:
            return True
        now = time.monotonic()
        full = [h for h in self._buckets if self._tokens(h, now) >= self.burst]
        for h in full:
            del self._buckets[h]
        tokens = self._tokens(host, now)
        allowed = tokens >= 1.0
        self._buckets[host] = (tokens - 1.0 if allowed else tokens, now)
        return allowed

    def retry_after(self, host: str) -> float:
        """Seconds until the host's bucket holds one token again."""
        if self.rate <= 0:
            return 0.0
        tokens, _ = self._buckets.get(host, (float(self.burst), 0.0))
        return round(max(0.05, (1.0 - tokens) / self.rate), 3)


@dataclass
class JobRecord:
    """One job's state, shared by every submission coalesced onto it.

    ``payload`` is the normalised payload and ``key`` its coalesce
    digest.  ``requeues`` counts re-executions after a worker crash.
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
        )


class ReproService:
    """The daemon: one instance per ``repro serve`` process.

    A full queue rejects a submission (``queue_full`` with a
    ``retry_after`` hint).  A worker crash requeues its job once (past
    the depth bound: the job already held a slot); a second crash, a
    timeout or a job error fails it."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.metrics = ServiceMetrics()
        self.store: ResultStore | None = None
        if config.store_dir is not None:
            self.store = ResultStore(Path(config.store_dir))
        self.quota = TokenBucket(config.quota_rate, config.quota_burst)
        self.queue: FairPriorityQueue[JobRecord] = FairPriorityQueue(
            config.queue_depth, age_seconds=config.age_seconds
        )
        self.pool = WorkerPool(config.workers)
        self.port = config.port
        self.http: MetricsHTTPServer | None = None
        self._env: dict[str, str] = {}
        if config.cache_dir is not None:
            self._env["REPRO_CACHE_DIR"] = config.cache_dir
        self._jobs: dict[str, JobRecord] = {}
        self._inflight_keys: dict[str, JobRecord] = {}
        self._job_seq = 0
        self._conn_seq = 0
        self._streams = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: asyncio.Server | None = None
        self._started_at = 0.0
        self._queue_event = asyncio.Event()
        self._slots = asyncio.Semaphore(config.workers)
        self._exec_tasks: set[asyncio.Task[None]] = set()
        self._dispatcher: asyncio.Task[None] | None = None
        self._ewma_seconds = 1.0

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the workers and bind the listener (resolves port 0)."""
        self._started_at = time.monotonic()
        self.pool.start()
        self.metrics.workers_alive.set(self.pool.alive_count())
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
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
                self.metrics.render_text,
            )
            await self.http.start()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon; with ``drain``, let admitted jobs finish first.

        New submissions are rejected the moment draining starts.  Queued
        and running jobs get up to ``drain_grace`` seconds; every job
        still unfinished then ends with ``code="draining"``, sent to each
        of its waiters, and the worker pool is closed.
        """
        if self._draining:
            return
        self._draining = True
        self.metrics.draining.set(1)
        deadline = time.monotonic() + self.config.drain_grace
        while drain and self._inflight_keys and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        for task in [self._dispatcher, *self._exec_tasks]:
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        for record in list(self._inflight_keys.values()):
            self._finish(
                record,
                error="service drained before the job finished",
                code="draining",
            )
        deadline = time.monotonic() + _FLUSH_SECONDS
        while self._streams and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self.pool.close()
        self.metrics.workers_alive.set(0)
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(OSError):
                await self._server.wait_closed()
        # The exposition socket outlives the drain on purpose: a scrape
        # that lands mid-drain still sees the dying daemon's final state.
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
        self, request: Request, client: str, host: str
    ) -> tuple[JobRecord, bool] | Response:
        """Admit one submission from connection ``client`` on peer
        ``host``; returns the record or an error response.  The quota is
        per host, the fair queue per connection."""
        assert request.job is not None
        spec = request.job
        if self._draining:
            return self._reject(
                request, "draining", "service is draining; submit rejected"
            )
        if not self.quota.allow(host):
            return self._reject(
                request,
                "quota",
                f"host {host} exceeded its submission quota",
                self.quota.retry_after(host),
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
            job_id=f"j{self._job_seq:06d}",
            spec=spec,
            payload=payload,
            key=key,
            client=client,
            submitted_at=time.monotonic(),
        )
        stored = self._store_lookup(record)
        if stored is None:
            try:
                self._enqueue(record)
            except QueueFullError as exc:
                return self._reject(
                    request, "queue_full", str(exc), self._retry_after()
                )
            self._inflight_keys[key] = record
        self._jobs[record.job_id] = record
        self._trim_history()
        self.metrics.jobs_submitted.inc(kind=spec.kind)
        if stored is not None:
            self._finish(record, result=stored, from_store=True)
        return record, False

    def _enqueue(self, record: JobRecord, force: bool = False) -> None:
        """Queue ``record`` for the dispatcher (``force`` skips the depth
        bound); raises :class:`QueueFullError` when the queue is full."""
        self.queue.push(
            record,
            client=record.client,
            priority=record.spec.priority,
            force=force,
        )
        self.metrics.queue_depth.set(len(self.queue))
        self._queue_event.set()

    def _retry_after(self) -> float:
        """Backpressure hint: roughly one queue turn at recent latency."""
        depth = max(1, len(self.queue))
        return round(
            max(0.1, depth * self._ewma_seconds / self.config.workers), 3
        )

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

    # -- execution --------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._slots.acquire()
            record: JobRecord | None = None
            while record is None:
                record = self.queue.pop()
                if record is None:
                    self._queue_event.clear()
                    await self._queue_event.wait()
            self.metrics.queue_depth.set(len(self.queue))
            aged = self.queue.consume_aged()
            if aged:
                self.metrics.jobs_aged.inc(aged)
            task = asyncio.create_task(self._execute(record))
            self._exec_tasks.add(task)
            task.add_done_callback(self._execution_finished)

    def _execution_finished(self, task: asyncio.Task[None]) -> None:
        self._exec_tasks.discard(task)
        self._slots.release()

    async def _execute(self, record: JobRecord) -> None:
        record.state = "running"
        record.attempts += 1
        self.metrics.jobs_in_flight.set(len(self._exec_tasks))
        self._publish_event(record, "started")
        spec = record.spec
        timeout = (
            spec.timeout if spec.timeout else self.config.default_timeout
        )
        started = time.monotonic()
        self.metrics.job_phase_seconds.observe(
            max(0.0, started - record.submitted_at),
            kind=spec.kind,
            phase="queue",
        )
        try:
            result, delta = await self.pool.run_job(
                record.job_id, spec.kind, record.payload, self._env, timeout
            )
        except WorkerCrashError as exc:
            self._note_restart()
            if record.requeues < 1:
                record.requeues += 1
                record.state = "queued"
                self.metrics.jobs_requeued.inc()
                self._publish_event(record, "requeued")
                self._enqueue(record, force=True)
                return
            self._finish(record, error=str(exc), code="worker_crash")
            return
        except JobTimeoutError as exc:
            self._note_restart()
            self._finish(record, error=str(exc), code="timeout")
            return
        except JobFailedError as exc:
            self.metrics.fold_cache_delta(exc.cache_delta)
            self._finish(record, error=str(exc), code="job_error")
            return
        finally:
            self.metrics.jobs_in_flight.set(max(0, len(self._exec_tasks) - 1))
        elapsed = time.monotonic() - started
        self._ewma_seconds = 0.8 * self._ewma_seconds + 0.2 * elapsed
        self.metrics.job_phase_seconds.observe(
            elapsed, kind=spec.kind, phase="execute"
        )
        self.metrics.fold_cache_delta(delta)
        self._finish(record, result=result)

    def _note_restart(self) -> None:
        self.metrics.worker_restarts.inc()
        self.metrics.workers_alive.set(self.pool.alive_count())

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
                )
            )

    # -- connection handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_seq += 1
        client = f"conn{self._conn_seq}"
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
                type="metrics", id=request.id, text=self.metrics.render_text()
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
        peer = writer.get_extra_info("peername")
        host = str(peer[0]) if isinstance(peer, tuple) and peer else client
        outcome = self._submit(request, client, host)
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
            "queue_depth": len(self.queue),
            "queue_clients": self.queue.clients(),
            "workers": self.pool.info(),
            "worker_restarts": self.pool.restarts,
            "metrics": self.metrics.snapshot(),
            "store": None if self.store is None else self.store.snapshot(),
        }
        return Response(type="status", id=request.id, value=summary)


@contextlib.contextmanager
def signal_handlers(
    loop: asyncio.AbstractEventLoop, service: ReproService
) -> Iterator[None]:
    """Install SIGTERM/SIGINT -> ``service.shutdown(drain=True)`` (best
    effort).

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


async def serve(config: ServiceConfig) -> None:
    """Run the daemon until SIGTERM/SIGINT completes a graceful drain.

    Tooling (the tests, the smoke checks, perfbench) reads the port from
    the tail of the first startup line, so the metrics port follows on a
    line of its own.
    """
    service = ReproService(config)
    await service.start()
    print(
        f"repro-serve: listening on {config.host}:{service.port} "
        f"({config.workers} workers, queue depth {config.queue_depth})",
        flush=True,
    )
    if service.http is not None:
        print(
            f"repro-serve: metrics on {config.host}:{service.http.port}",
            flush=True,
        )
    with signal_handlers(asyncio.get_running_loop(), service):
        await service.wait_stopped()
    print("repro-serve: drained, bye", flush=True)


__all__ = [
    "JobRecord",
    "ReproService",
    "ServiceConfig",
    "TokenBucket",
    "serve",
    "signal_handlers",
]

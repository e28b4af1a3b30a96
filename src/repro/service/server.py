"""The asyncio daemon: accept, coalesce, queue, dispatch, drain.

One event loop owns all bookkeeping (queue, job table, metrics); worker
processes own all simulation.  The dispatcher pops the fair priority
queue only when a worker slot is free, so queue *order* — priority, then
per-client round robin — is what decides who runs next, not task-spawn
races.

Job lifecycle::

    submit -> queued -> running -> done
                 ^         |-> failed          (error/timeout/2nd crash)
                 +--- requeued (worker crash, at most once)

Single-flight coalescing: a submission whose normalized payload digests
to the key of a job already ``queued``/``running`` attaches to that job
instead of enqueueing a duplicate — identical concurrent requests cost
one simulation and every waiter gets the same result.  Completed jobs
leave the key table, so later resubmissions enqueue normally (and then
typically hit the on-disk run cache inside the worker).

SIGTERM starts a drain: new submissions are rejected with
``code="draining"`` while queued and in-flight jobs finish (bounded by
``drain_grace``); then workers shut down and the listener closes.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ProtocolError
from repro.service import jobs as job_registry
from repro.service.httpexpo import MetricsHTTPServer
from repro.service.metrics import ServiceMetrics
from repro.service.store import ResultStore
from repro.service.protocol import (
    JobSpec,
    JSONDict,
    Request,
    Response,
    decode_request,
    encode,
)
from repro.service.queue import FairPriorityQueue, QueueFullError
from repro.service.workers import (
    JobFailedError,
    JobTimeoutError,
    WorkerCrashError,
    WorkerPool,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon knobs (all exposed as ``repro serve`` flags).

    ``age_seconds`` enables priority aging in the fair queue (None =
    off); ``store_dir`` attaches the node to a shared result store so
    completed results are served before forking a worker — in cluster
    mode every backend shares the front tier's store.  ``metrics_port``
    additionally serves the exposition over plain HTTP ``GET /metrics``
    (0 = pick a free port; None = TCP-protocol ``metrics`` only).
    """

    host: str = "127.0.0.1"
    port: int = 7341
    workers: int = 2
    queue_depth: int = 64
    default_timeout: float = 300.0
    drain_grace: float = 30.0
    history_limit: int = 512
    cache_dir: str | None = None
    age_seconds: float | None = None
    store_dir: str | None = None
    metrics_port: int | None = None


@dataclass
class JobRecord:
    """Server-side state of one job (shared by coalesced submissions)."""

    job_id: str
    spec: JobSpec
    payload: JSONDict
    key: str
    client: str
    state: str = "queued"
    attempts: int = 0
    requeues: int = 0
    result: JSONDict | None = None
    error: str | None = None
    error_code: str | None = None
    submitted_at: float = 0.0
    finished_at: float = 0.0
    coalesced_count: int = 0
    subscribers: list[tuple[str, asyncio.Queue[Response]]] = field(
        default_factory=list
    )

    def status_response(self, request_id: str) -> Response:
        return Response(
            type="status",
            id=request_id,
            job_id=self.job_id,
            stage=self.state,
            attempts=self.attempts,
            ok=None if self.state in ("queued", "running") else not self.error,
            value=self.result,
            error=self.error,
            code=self.error_code,
        )


class ReproService:
    """The daemon: one instance per ``repro serve`` process."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.metrics = ServiceMetrics()
        self.queue: FairPriorityQueue[JobRecord] = FairPriorityQueue(
            config.queue_depth, age_seconds=config.age_seconds
        )
        self.store: ResultStore | None = None
        if config.store_dir is not None:
            self.store = ResultStore(
                Path(config.store_dir), owner=f"backend-{os.getpid()}"
            )
        self.pool = WorkerPool(config.workers)
        self.host = config.host
        self.port = config.port
        self._jobs: dict[str, JobRecord] = {}
        self._inflight_keys: dict[str, JobRecord] = {}
        self._job_seq = 0
        self._conn_seq = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._queue_event = asyncio.Event()
        self._slots = asyncio.Semaphore(config.workers)
        self._exec_tasks: set[asyncio.Task[None]] = set()
        self._dispatcher: asyncio.Task[None] | None = None
        self._server: asyncio.Server | None = None
        self.http: MetricsHTTPServer | None = None
        self._started_at = 0.0
        self._ewma_seconds = 1.0

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Spawn workers and bind the listener (resolves port 0)."""
        self._started_at = time.monotonic()
        self.pool.start()
        self.metrics.workers_alive.set(self.pool.alive_count())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets
        if sockets:
            self.port = sockets[0].getsockname()[1]
        if self.config.metrics_port is not None:
            self.http = MetricsHTTPServer(
                self.config.host, self.config.metrics_port, self._render_http
            )
            await self.http.start()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def _render_http(self) -> str:
        return self.metrics.render_text()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the service; with ``drain``, finish accepted jobs first.

        New submissions are rejected the moment draining starts; queued
        and in-flight jobs get up to ``drain_grace`` seconds to finish,
        then workers are shut down (killing any still-running job).
        """
        if self._draining:
            return
        self._draining = True
        self.metrics.draining.set(1)
        if drain:
            deadline = time.monotonic() + self.config.drain_grace
            while time.monotonic() < deadline:
                if len(self.queue) == 0 and not self._exec_tasks:
                    break
                self._queue_event.set()  # wake the dispatcher if parked
                await asyncio.sleep(0.05)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
        for task in list(self._exec_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self.pool.close()
        self.metrics.workers_alive.set(0)
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(OSError):
                await self._server.wait_closed()
        # The exposition socket outlives the drain on purpose: a scrape
        # that lands mid-drain still sees the dying node's final state.
        if self.http is not None:
            await self.http.close()
        self._stopped.set()

    # -- submission -------------------------------------------------------------

    def _next_job_id(self) -> str:
        self._job_seq += 1
        return f"j{self._job_seq:06d}"

    def _retry_after(self) -> float:
        """Backpressure hint: roughly one queue turn at recent latency."""
        depth = max(1, len(self.queue))
        return round(
            max(0.1, depth * self._ewma_seconds / self.config.workers), 3
        )

    def _submit(
        self, request: Request, client: str
    ) -> tuple[JobRecord, bool] | Response:
        """Admit one submission; returns the record or an error response."""
        assert request.job is not None
        spec = request.job
        if self._draining:
            self.metrics.jobs_rejected.inc(reason="draining")
            return Response(
                type="error",
                id=request.id,
                code="draining",
                error="service is draining; submit rejected",
            )
        try:
            payload = job_registry.normalize(spec.kind, spec.payload)
        except ProtocolError as exc:
            self.metrics.jobs_rejected.inc(reason="bad_request")
            return Response(
                type="error", id=request.id, code="bad_request", error=str(exc)
            )
        key = job_registry.coalesce_key(spec.kind, payload)
        existing = self._inflight_keys.get(key)
        if existing is not None and existing.state in ("queued", "running"):
            existing.coalesced_count += 1
            self.metrics.jobs_coalesced.inc()
            return existing, True
        stored = self._store_lookup(spec.kind, payload, key)
        if stored is not None:
            now = time.monotonic()
            record = JobRecord(
                job_id=self._next_job_id(),
                spec=spec,
                payload=payload,
                key=key,
                client=client,
                state="done",
                result=stored,
                submitted_at=now,
                finished_at=now,
            )
            self._jobs[record.job_id] = record
            self._trim_history()
            self.metrics.jobs_submitted.inc(kind=spec.kind)
            self.metrics.jobs_completed.inc(kind=spec.kind, outcome="store")
            return record, False
        record = JobRecord(
            job_id=self._next_job_id(),
            spec=spec,
            payload=payload,
            key=key,
            client=client,
            submitted_at=time.monotonic(),
        )
        try:
            self.queue.push(
                record, client=client, priority=spec.priority
            )
        except QueueFullError as exc:
            self.metrics.jobs_rejected.inc(reason="queue_full")
            return Response(
                type="error",
                id=request.id,
                code="queue_full",
                error=str(exc),
                retry_after=self._retry_after(),
            )
        self._jobs[record.job_id] = record
        self._inflight_keys[key] = record
        self._trim_history()
        self.metrics.jobs_submitted.inc(kind=spec.kind)
        self.metrics.queue_depth.set(len(self.queue))
        self._queue_event.set()
        return record, False

    def _store_lookup(
        self, kind: str, payload: JSONDict, key: str
    ) -> JSONDict | None:
        """Shared-store result for an eligible submission, else None."""
        if (
            self.store is None
            or kind not in job_registry.CACHEABLE_KINDS
            or payload.get("no_cache")
        ):
            return None
        value = self.store.get(kind, key)
        self.metrics.record_store_op("hits" if value is not None else "misses")
        return value

    def _trim_history(self) -> None:
        """Drop the oldest *finished* jobs beyond ``history_limit``."""
        excess = len(self._jobs) - self.config.history_limit
        if excess <= 0:
            return
        for job_id in [
            jid
            for jid, rec in self._jobs.items()
            if rec.state in ("done", "failed")
        ][:excess]:
            del self._jobs[job_id]

    # -- dispatch / execution ---------------------------------------------------

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
        env: dict[str, str] = {}
        if self.config.cache_dir is not None:
            env["REPRO_CACHE_DIR"] = self.config.cache_dir
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
                record.job_id, spec.kind, record.payload, env, timeout
            )
        except WorkerCrashError as exc:
            self._note_restart()
            if record.requeues < 1:
                record.requeues += 1
                record.state = "queued"
                self.metrics.jobs_requeued.inc()
                self._publish_event(record, "requeued")
                self.queue.push(
                    record,
                    client=record.client,
                    priority=spec.priority,
                    force=True,
                )
                self.metrics.queue_depth.set(len(self.queue))
                self._queue_event.set()
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
        self.metrics.job_seconds.observe(elapsed, kind=spec.kind)
        self.metrics.job_phase_seconds.observe(
            elapsed, kind=spec.kind, phase="execute"
        )
        self.metrics.fold_cache_delta(delta)
        record.result = result
        self._finish(record, error=None, code=None)

    def _note_restart(self) -> None:
        self.metrics.worker_restarts.inc()
        self.metrics.workers_alive.set(self.pool.alive_count())

    def _finish(
        self, record: JobRecord, error: str | None, code: str | None
    ) -> None:
        """Terminal transition: publish the result to every waiter."""
        record.state = "failed" if error else "done"
        record.error = error
        record.error_code = code
        record.finished_at = time.monotonic()
        outcome = code if code else "ok"
        self.metrics.jobs_completed.inc(kind=record.spec.kind, outcome=outcome)
        if self._inflight_keys.get(record.key) is record:
            del self._inflight_keys[record.key]
        if (
            error is None
            and record.result is not None
            and self.store is not None
            and record.spec.kind in job_registry.CACHEABLE_KINDS
            and not record.payload.get("no_cache")
        ):
            self.store.put(record.spec.kind, record.key, record.result)
            self.metrics.store_ops.inc(op="stores")
            self.store.flush_stats()
        for request_id, queue in record.subscribers:
            queue.put_nowait(
                Response(
                    type="result",
                    id=request_id,
                    job_id=record.job_id,
                    ok=error is None,
                    value=record.result,
                    error=error,
                    code=code,
                    attempts=record.attempts,
                )
            )
        record.subscribers.clear()

    def _publish_event(self, record: JobRecord, stage: str) -> None:
        for request_id, queue in record.subscribers:
            queue.put_nowait(
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
            writer.write(encode(Response(type="pong", id=request.id)))
            await writer.drain()
            return
        if request.type == "metrics":
            writer.write(
                encode(
                    Response(
                        type="metrics",
                        id=request.id,
                        text=self.metrics.render_text(),
                    )
                )
            )
            await writer.drain()
            return
        if request.type == "status":
            writer.write(encode(self._status_response(request)))
            await writer.drain()
            return
        # submit (the front tier forwards the real submitter's identity)
        outcome = self._submit(request, request.client or client)
        if isinstance(outcome, Response):
            writer.write(encode(outcome))
            await writer.drain()
            return
        record, coalesced = outcome
        terminal = record.state in ("done", "failed")
        inbox: asyncio.Queue[Response] | None = None
        if request.wait and not terminal:
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
        if terminal:  # store hit: the result already exists
            if request.wait:
                writer.write(
                    encode(
                        Response(
                            type="result",
                            id=request.id,
                            job_id=record.job_id,
                            ok=record.error is None,
                            value=record.result,
                            error=record.error,
                            code=record.error_code,
                            attempts=record.attempts,
                        )
                    )
                )
                await writer.drain()
            return
        if inbox is None:
            return
        while True:
            response = await inbox.get()
            writer.write(encode(response))
            await writer.drain()
            if response.type == "result":
                return

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
        states: dict[str, int] = {}
        for record in self._jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        summary: JSONDict = {
            "draining": self._draining,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "queue_depth": len(self.queue),
            "queue_clients": self.queue.clients(),
            "jobs_by_state": states,
            "workers": self.pool.info(),
            "worker_restarts": self.pool.restarts,
            "metrics": self.metrics.snapshot(),
            "store": None if self.store is None else self.store.snapshot(),
        }
        return Response(type="status", id=request.id, value=summary)


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
    draining: set[asyncio.Task] = set()

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
    """Run the daemon until SIGTERM/SIGINT completes a graceful drain."""
    service = ReproService(config)
    await service.start()
    print(
        f"repro-serve: listening on {service.host}:{service.port} "
        f"({config.workers} workers, queue depth {config.queue_depth})",
        flush=True,
    )
    # After the listening line: cluster backend spawning reads exactly
    # one startup line per daemon.
    if service.http is not None:
        print(
            f"repro-serve: metrics on {service.host}:{service.http.port}",
            flush=True,
        )
    loop = asyncio.get_running_loop()
    with signal_handlers(loop, service):
        await service.wait_stopped()
    print("repro-serve: drained, bye", flush=True)


__all__ = ["JobRecord", "ReproService", "ServiceConfig", "serve"]

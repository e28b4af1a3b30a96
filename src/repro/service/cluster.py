"""Sharded cache-sharing cluster: the digest-routed front tier.

``repro serve --cluster N`` turns the single daemon into a fleet: a
front tier that speaks the exact same line-delimited-JSON protocol as a
single node (``repro submit``/``status`` clients need no changes) and
routes every job by its coalesce digest to one of N backend daemons.

Routing is a consistent-hash ring (:mod:`repro.service.ring`) over the
digest, so the fleet inherits the single node's economics at scale:

* **Fleet-wide coalescing** — equal payloads digest equal, land on the
  same backend, and additionally coalesce *at the front* (one in-flight
  table across every downstream connection), so N clients submitting the
  same job cost one simulation no matter which connections they arrive
  on.  This is VISA's own trick applied to serving: pay the heavy
  speculative work once, and let a cheap bound (here, the digest) make
  the sharing safe.
* **Shared result store** (:mod:`repro.service.store`) — completed
  results are content-addressed on a directory every node shares; the
  front (and each backend) serves repeats from the store before any
  worker forks.
* **Failover** — a dead backend's keys fail over to their ring
  successor: in-flight jobs on a broken connection are requeued there
  exactly once per death, and a per-backend circuit breaker stops the
  front from hammering a corpse while health checks probe for recovery.
* **Load shedding** — beyond the backends' ``queue_full`` backpressure,
  the front enforces per-client token-bucket quotas (``code="quota"``
  with a ``retry_after``), and the backend fair queues age starved
  priorities upward (see :mod:`repro.service.queue`).

One front process, one TCP connection per backend: requests are
multiplexed over it by response ``id`` (the protocol echoes ids on every
reply, which is exactly what makes this safe), and the submitter's
identity rides along in the request's ``client`` field so backend
fairness still sees real clients.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ProtocolError, ServiceError
from repro.service import jobs as job_registry
from repro.service.httpexpo import MetricsHTTPServer
from repro.service.metrics import Registry, relabel_exposition
from repro.service.protocol import (
    JobSpec,
    JSONDict,
    Request,
    Response,
    decode_request,
    decode_response,
    encode,
)
from repro.service.ring import DEFAULT_VNODES, HashRing
from repro.service.server import signal_handlers
from repro.service.store import ResultStore, default_store_dir
from repro.service.workers import await_within


@dataclass(frozen=True)
class ClusterConfig:
    """Front-tier knobs (exposed as ``repro serve --cluster`` flags)."""

    host: str = "127.0.0.1"
    port: int = 7341
    vnodes: int = DEFAULT_VNODES
    store_dir: str | None = None
    quota_rate: float = 0.0
    quota_burst: int = 8
    health_interval: float = 1.0
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    default_timeout: float = 300.0
    drain_grace: float = 30.0
    history_limit: int = 512
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


class FrontMetrics:
    """Front-tier collectors; backend series are relabeled on render."""

    def __init__(self) -> None:
        self.registry = Registry()
        reg = self.registry
        self.jobs_submitted = reg.counter(
            "repro_front_jobs_submitted_total",
            "Jobs admitted by the front tier, by kind.",
        )
        self.jobs_completed = reg.counter(
            "repro_front_jobs_completed_total",
            "Jobs finished at the front tier, by kind and outcome "
            "(ok/store/queue_full/quota/...).",
        )
        self.jobs_coalesced = reg.counter(
            "repro_front_jobs_coalesced_total",
            "Submissions attached to an identical in-flight job, fleet-wide.",
        )
        self.jobs_rejected = reg.counter(
            "repro_front_jobs_rejected_total",
            "Submissions rejected at the front (quota/draining/bad_request).",
        )
        self.failovers = reg.counter(
            "repro_front_failovers_total",
            "Jobs requeued to their ring successor after a backend failure.",
        )
        self.store_ops = reg.counter(
            "repro_front_store_ops_total",
            "Shared result-store hits/misses/stores at the front tier.",
        )
        self.store_hit_ratio = reg.gauge(
            "repro_front_store_hit_ratio",
            "Front-tier store hits / (hits + misses) since start.",
        )
        self.jobs_in_flight = reg.gauge(
            "repro_front_jobs_in_flight",
            "Jobs currently being routed or executed on a backend.",
        )
        self.backend_up = reg.gauge(
            "repro_front_backend_up",
            "1 while the backend answers health checks, by backend.",
        )
        self.backend_queue_depth = reg.gauge(
            "repro_front_backend_queue_depth",
            "Queue depth last reported by each backend's health check.",
        )
        self.breaker_open = reg.gauge(
            "repro_front_breaker_open",
            "1 while a backend's circuit breaker is open, by backend.",
        )
        self.ring_ownership = reg.gauge(
            "repro_front_ring_ownership",
            "Fraction of the digest space each backend owns.",
        )
        self.draining = reg.gauge(
            "repro_front_draining",
            "1 while the front tier is draining after SIGTERM.",
        )
        # Same metric name as the single-node daemon exports, observed
        # end-to-end at the front (including store hits), so per-kind
        # latency histograms exist at both endpoints.
        self.job_seconds = reg.histogram(
            "repro_job_seconds",
            "Wall-clock job latency by kind (seconds), front-tier view.",
        )

    def snapshot(self) -> dict[str, float]:
        return {
            "submitted": self.jobs_submitted.total(),
            "completed": self.jobs_completed.total(),
            "coalesced": self.jobs_coalesced.total(),
            "rejected": self.jobs_rejected.total(),
            "failovers": self.failovers.total(),
            "store_hits": self.store_ops.value(op="hits"),
            "store_misses": self.store_ops.value(op="misses"),
            "jobs_in_flight": self.jobs_in_flight.value(),
        }


@dataclass
class FrontJob:
    """Front-tier state of one job (shared by coalesced submissions)."""

    job_id: str
    kind: str
    payload: JSONDict
    key: str
    client: str
    priority: int = 0
    timeout: float | None = None
    state: str = "queued"
    backend: str | None = None
    attempts: int = 0
    failovers: int = 0
    result: JSONDict | None = None
    error: str | None = None
    error_code: str | None = None
    retry_after: float | None = None
    submitted_at: float = 0.0
    finished_at: float = 0.0
    coalesced_count: int = 0
    subscribers: list[tuple[str, asyncio.Queue[Response]]] = field(
        default_factory=list
    )


class BackendLink:
    """One backend daemon: a multiplexed connection plus breaker state.

    All requests share one TCP connection; the reader task routes every
    response line to the pending queue registered under its ``id``.  EOF
    (backend death) wakes every pending request with a ``None`` sentinel
    so each in-flight job can fail over independently."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        *,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
        pid: int | None = None,
    ):
        self.name = name
        self.host = host
        self.port = port
        self.pid = pid
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.last_summary: JSONDict | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._read_task: asyncio.Task[None] | None = None
        self._pending: dict[str, asyncio.Queue[Response | None]] = {}
        self._seq = 0
        self._connect_lock = asyncio.Lock()
        self._failures = 0
        self._open_until = 0.0

    def next_id(self) -> str:
        self._seq += 1
        return f"{self.name}-{self._seq}"

    def connected(self) -> bool:
        return self._writer is not None

    def breaker_is_open(self) -> bool:
        return time.monotonic() < self._open_until

    def note_success(self) -> None:
        self._failures = 0
        self._open_until = 0.0

    def note_failure(self) -> None:
        self._failures += 1
        if self._failures >= self.breaker_threshold:
            self._open_until = time.monotonic() + self.breaker_cooldown

    async def _ensure_connected(self) -> None:
        async with self._connect_lock:
            if self._writer is not None:
                return
            reader, writer = await asyncio.open_connection(self.host, self.port)
            self._reader = reader
            self._writer = writer
            self._read_task = asyncio.create_task(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = decode_response(line)
                except ProtocolError:
                    continue
                queue = self._pending.get(response.id)
                if queue is not None:
                    queue.put_nowait(response)
        except (ConnectionResetError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._teardown()

    def _teardown(self) -> None:
        writer = self._writer
        self._reader = None
        self._writer = None
        if writer is not None:
            with contextlib.suppress(OSError, RuntimeError):
                writer.close()
        for queue in self._pending.values():
            queue.put_nowait(None)
        self._pending.clear()

    async def open_channel(
        self, request: Request
    ) -> asyncio.Queue[Response | None]:
        """Send ``request``; responses carrying its id land on the queue."""
        await self._ensure_connected()
        queue: asyncio.Queue[Response | None] = asyncio.Queue()
        self._pending[request.id] = queue
        assert self._writer is not None
        try:
            self._writer.write(encode(request))
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            self._pending.pop(request.id, None)
            self._teardown()
            raise ConnectionError(f"backend {self.name} write failed") from None
        return queue

    def close_channel(self, request_id: str) -> None:
        self._pending.pop(request_id, None)

    async def call(
        self, request: Request, timeout: float = 5.0
    ) -> Response | None:
        """One request/response round trip; None on any failure."""
        try:
            queue = await self.open_channel(request)
        except (OSError, ConnectionError):
            return None
        try:
            response = await await_within(queue.get(), timeout)
        except asyncio.TimeoutError:
            return None
        finally:
            self.close_channel(request.id)
        return response

    async def close(self) -> None:
        task = self._read_task
        self._read_task = None
        self._teardown()
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task


class ClusterFront:
    """The front tier: one instance per ``repro serve --cluster`` process."""

    def __init__(
        self,
        config: ClusterConfig,
        links: list[BackendLink],
        procs: list["LocalBackend"] | None = None,
    ):
        if not links:
            raise ValueError("cluster front needs at least one backend")
        self.config = config
        self.links: dict[str, BackendLink] = {link.name: link for link in links}
        self.ring = HashRing(self.links, vnodes=config.vnodes)
        store_path = (
            Path(config.store_dir)
            if config.store_dir is not None
            else default_store_dir()
        )
        self.store = ResultStore(store_path, owner=f"front-{os.getpid()}")
        self.metrics = FrontMetrics()
        self.quota = TokenBucket(config.quota_rate, config.quota_burst)
        self.host = config.host
        self.port = config.port
        self.procs: list[LocalBackend] = list(procs or [])
        self._jobs: dict[str, FrontJob] = {}
        self._inflight_keys: dict[str, FrontJob] = {}
        self._job_seq = 0
        self._conn_seq = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: asyncio.Server | None = None
        self.http: MetricsHTTPServer | None = None
        self._health_task: asyncio.Task[None] | None = None
        self._run_tasks: set[asyncio.Task[None]] = set()
        self._started_at = 0.0
        for node, fraction in self.ring.ownership().items():
            self.metrics.ring_ownership.set(round(fraction, 6), backend=node)

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        self._started_at = time.monotonic()
        for link in self.links.values():
            with contextlib.suppress(OSError, ConnectionError):
                await link._ensure_connected()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets
        if sockets:
            self.port = sockets[0].getsockname()[1]
        if self.config.metrics_port is not None:
            self.http = MetricsHTTPServer(
                self.config.host, self.config.metrics_port, self._metrics_text
            )
            await self.http.start()
        self._health_task = asyncio.create_task(self._health_loop())

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the front; with ``drain``, finish routed jobs first, then
        SIGTERM any locally spawned backends and wait for their drains."""
        if self._draining:
            return
        self._draining = True
        self.metrics.draining.set(1)
        if drain:
            deadline = time.monotonic() + self.config.drain_grace
            while time.monotonic() < deadline and self._run_tasks:
                await asyncio.sleep(0.05)
        for task in list(self._run_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
        for link in self.links.values():
            await link.close()
        await self._stop_local_backends(drain)
        with contextlib.suppress(OSError):
            self.store.flush_stats()
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(OSError):
                await self._server.wait_closed()
        # Exposition closes last so scrapes observe the drain itself.
        if self.http is not None:
            await self.http.close()
        self._stopped.set()

    async def _stop_local_backends(self, drain: bool) -> None:
        for backend in self.procs:
            if backend.proc.poll() is None:
                with contextlib.suppress(OSError):
                    backend.proc.send_signal(
                        signal.SIGTERM if drain else signal.SIGKILL
                    )
        deadline = time.monotonic() + self.config.drain_grace
        while time.monotonic() < deadline:
            if all(b.proc.poll() is not None for b in self.procs):
                return
            await asyncio.sleep(0.05)
        for backend in self.procs:
            if backend.proc.poll() is None:
                with contextlib.suppress(OSError):
                    backend.proc.kill()

    # -- submission -------------------------------------------------------------

    def _next_job_id(self) -> str:
        self._job_seq += 1
        return f"c{self._job_seq:06d}"

    def _trim_history(self) -> None:
        excess = len(self._jobs) - self.config.history_limit
        if excess <= 0:
            return
        for job_id in [
            jid
            for jid, job in self._jobs.items()
            if job.state in ("done", "failed")
        ][:excess]:
            del self._jobs[job_id]

    def _submit(
        self, request: Request, client: str
    ) -> tuple[FrontJob, bool] | Response:
        assert request.job is not None
        spec = request.job
        if self._draining:
            self.metrics.jobs_rejected.inc(reason="draining")
            return Response(
                type="error",
                id=request.id,
                code="draining",
                error="cluster front is draining; submit rejected",
            )
        if not self.quota.allow(client):
            self.metrics.jobs_rejected.inc(reason="quota")
            return Response(
                type="error",
                id=request.id,
                code="quota",
                error=f"client {client} exceeded its submission quota",
                retry_after=self.quota.retry_after(client),
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
        now = time.monotonic()
        stored = self._store_lookup(spec.kind, payload, key)
        if stored is not None:
            job = FrontJob(
                job_id=self._next_job_id(),
                kind=spec.kind,
                payload=payload,
                key=key,
                client=client,
                state="done",
                result=stored,
                submitted_at=now,
                finished_at=now,
            )
            self._jobs[job.job_id] = job
            self._trim_history()
            self.metrics.jobs_submitted.inc(kind=spec.kind)
            self.metrics.jobs_completed.inc(kind=spec.kind, outcome="store")
            self.metrics.job_seconds.observe(
                time.monotonic() - now, kind=spec.kind
            )
            return job, False
        job = FrontJob(
            job_id=self._next_job_id(),
            kind=spec.kind,
            payload=payload,
            key=key,
            client=client,
            priority=spec.priority,
            timeout=spec.timeout,
            submitted_at=now,
        )
        self._jobs[job.job_id] = job
        self._inflight_keys[key] = job
        self._trim_history()
        self.metrics.jobs_submitted.inc(kind=spec.kind)
        task = asyncio.create_task(self._run_job(job))
        self._run_tasks.add(task)
        task.add_done_callback(self._run_tasks.discard)
        return job, False

    def _store_lookup(
        self, kind: str, payload: JSONDict, key: str
    ) -> JSONDict | None:
        if kind not in job_registry.CACHEABLE_KINDS or payload.get("no_cache"):
            return None
        value = self.store.get(kind, key)
        self.metrics.store_ops.inc(op="hits" if value is not None else "misses")
        hits = self.metrics.store_ops.value(op="hits")
        misses = self.metrics.store_ops.value(op="misses")
        if hits + misses > 0:
            self.metrics.store_hit_ratio.set(hits / (hits + misses))
        return value

    # -- routing / execution ----------------------------------------------------

    async def _run_job(self, job: FrontJob) -> None:
        job.state = "running"
        started = time.monotonic()
        self.metrics.jobs_in_flight.set(len(self._run_tasks))
        last_code = "backend_unavailable"
        last_error = "no backend available for job"
        first_attempt = True
        try:
            for node in self.ring.preference(job.key):
                link = self.links[node]
                if link.breaker_is_open():
                    continue
                if not first_attempt:
                    job.failovers += 1
                    self.metrics.failovers.inc()
                    self._publish_event(job, "requeued")
                first_attempt = False
                job.backend = node
                job.attempts += 1
                response = await self._run_on_backend(job, link)
                if response is None:
                    link.note_failure()
                    last_code = "backend_down"
                    last_error = f"backend {node} failed mid-job"
                    continue
                link.note_success()
                self._settle(job, response, started)
                return
            self._finish(job, error=last_error, code=last_code)
        except asyncio.CancelledError:
            if job.state in ("queued", "running"):
                self._finish(
                    job,
                    error="cluster front shut down mid-job",
                    code="draining",
                )
            raise

    async def _run_on_backend(
        self, job: FrontJob, link: BackendLink
    ) -> Response | None:
        """Forward one job; final response, or None to trigger failover."""
        request = Request(
            type="submit",
            id=link.next_id(),
            job=JobSpec(
                kind=job.kind,
                payload=job.payload,
                priority=job.priority,
                timeout=job.timeout,
            ),
            wait=True,
            client=job.client,
        )
        try:
            channel = await link.open_channel(request)
        except (OSError, ConnectionError):
            return None
        try:
            budget = (job.timeout or self.config.default_timeout) + 60.0
            deadline = time.monotonic() + budget
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                try:
                    response = await await_within(channel.get(), remaining)
                except asyncio.TimeoutError:
                    return None
                if response is None:
                    return None
                if response.type == "accepted":
                    continue
                if response.type == "event":
                    self._publish_event(job, response.stage or "event")
                    continue
                if response.type == "error" and response.code == "draining":
                    return None  # backend is shutting down: fail over
                return response
        finally:
            link.close_channel(request.id)

    def _settle(
        self, job: FrontJob, response: Response, started: float
    ) -> None:
        """Terminal bookkeeping for a backend's final answer."""
        if response.type == "error" or not response.ok:
            self._finish(
                job,
                error=response.error or "backend rejected job",
                code=response.code,
                retry_after=response.retry_after,
            )
            return
        job.result = response.value if isinstance(response.value, dict) else {}
        if (
            job.kind in job_registry.CACHEABLE_KINDS
            and not job.payload.get("no_cache")
        ):
            self.store.put(job.kind, job.key, job.result)
            self.metrics.store_ops.inc(op="stores")
        self.metrics.job_seconds.observe(
            time.monotonic() - started, kind=job.kind
        )
        self._finish(job, error=None, code=None)

    def _finish(
        self,
        job: FrontJob,
        error: str | None,
        code: str | None,
        retry_after: float | None = None,
    ) -> None:
        job.state = "failed" if error else "done"
        job.error = error
        job.error_code = code
        job.retry_after = retry_after
        job.finished_at = time.monotonic()
        self.metrics.jobs_completed.inc(
            kind=job.kind, outcome=code if code else "ok"
        )
        if self._inflight_keys.get(job.key) is job:
            del self._inflight_keys[job.key]
        for request_id, queue in job.subscribers:
            queue.put_nowait(
                Response(
                    type="result",
                    id=request_id,
                    job_id=job.job_id,
                    ok=error is None,
                    value=job.result,
                    error=error,
                    code=code,
                    retry_after=retry_after,
                    attempts=job.attempts,
                    backend=job.backend,
                )
            )
        job.subscribers.clear()
        self.metrics.jobs_in_flight.set(max(0, len(self._run_tasks) - 1))

    def _publish_event(self, job: FrontJob, stage: str) -> None:
        for request_id, queue in job.subscribers:
            queue.put_nowait(
                Response(
                    type="event",
                    id=request_id,
                    job_id=job.job_id,
                    stage=stage,
                    attempts=job.attempts,
                    backend=job.backend,
                )
            )

    # -- health / metrics -------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            for name, link in self.links.items():
                response = await link.call(
                    Request(type="status", id=link.next_id()),
                    timeout=max(0.5, self.config.health_interval),
                )
                up = response is not None and response.type == "status"
                if up and response is not None:
                    summary = response.value
                    link.last_summary = (
                        summary if isinstance(summary, dict) else None
                    )
                    link.note_success()
                    depth = 0.0
                    if isinstance(link.last_summary, dict):
                        raw_depth = link.last_summary.get("queue_depth", 0)
                        if isinstance(raw_depth, (int, float)):
                            depth = float(raw_depth)
                    self.metrics.backend_queue_depth.set(depth, backend=name)
                else:
                    link.last_summary = None
                    link.note_failure()
                self.metrics.backend_up.set(1.0 if up else 0.0, backend=name)
                self.metrics.breaker_open.set(
                    1.0 if link.breaker_is_open() else 0.0, backend=name
                )
            with contextlib.suppress(OSError):
                self.store.flush_stats()
            await asyncio.sleep(self.config.health_interval)

    async def _metrics_text(self) -> str:
        """Front registry + fleet aggregates + relabeled backend series."""
        parts = [self.metrics.registry.render_text(), self._fleet_lines()]
        for name in self.ring.nodes:
            link = self.links[name]
            response = await link.call(
                Request(type="metrics", id=link.next_id()), timeout=3.0
            )
            if response is not None and response.text:
                parts.append(relabel_exposition(response.text, backend=name))
        return "".join(parts)

    def _fleet_lines(self) -> str:
        """Fleet-wide aggregates computed from cached health summaries."""
        coalesced = self.metrics.jobs_coalesced.total()
        cache_hits = cache_misses = 0.0
        store_hits = self.metrics.store_ops.value(op="hits")
        store_misses = self.metrics.store_ops.value(op="misses")
        backends_up = 0
        for link in self.links.values():
            summary = link.last_summary
            if not isinstance(summary, dict):
                continue
            backends_up += 1
            metrics = summary.get("metrics")
            if isinstance(metrics, dict):
                coalesced += float(metrics.get("coalesced", 0) or 0)
                cache_hits += float(metrics.get("run_cache_hits", 0) or 0)
                cache_misses += float(metrics.get("run_cache_misses", 0) or 0)
            store = summary.get("store")
            if isinstance(store, dict):
                store_hits += float(store.get("hits", 0) or 0)
                store_misses += float(store.get("misses", 0) or 0)
        registry = Registry()
        registry.gauge(
            "repro_fleet_backends_up",
            "Backends currently answering health checks.",
        ).set(backends_up)
        registry.gauge(
            "repro_fleet_jobs_coalesced_total",
            "Coalesced submissions across the front tier and every backend.",
        ).set(coalesced)
        registry.gauge(
            "repro_fleet_run_cache_hit_ratio",
            "Run-cache hits / (hits + misses) summed over every backend.",
        ).set(
            cache_hits / (cache_hits + cache_misses)
            if cache_hits + cache_misses
            else 0.0
        )
        registry.gauge(
            "repro_fleet_store_hit_ratio",
            "Shared-store hits / (hits + misses), front tier plus backends.",
        ).set(
            store_hits / (store_hits + store_misses)
            if store_hits + store_misses
            else 0.0
        )
        return registry.render_text()

    # -- connection handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_seq += 1
        client = f"fconn{self._conn_seq}"
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
                        text=await self._metrics_text(),
                    )
                )
            )
            await writer.drain()
            return
        if request.type == "status":
            writer.write(encode(self._status_response(request)))
            await writer.drain()
            return
        # submit
        outcome = self._submit(request, request.client or client)
        if isinstance(outcome, Response):
            writer.write(encode(outcome))
            await writer.drain()
            return
        job, coalesced = outcome
        terminal = job.state in ("done", "failed")
        inbox: asyncio.Queue[Response] | None = None
        if request.wait and not terminal:
            inbox = asyncio.Queue()
            job.subscribers.append((request.id, inbox))
        writer.write(
            encode(
                Response(
                    type="accepted",
                    id=request.id,
                    job_id=job.job_id,
                    coalesced=coalesced,
                    stage=job.state,
                    backend=job.backend,
                )
            )
        )
        await writer.drain()
        if terminal:  # served from the shared store
            if request.wait:
                writer.write(
                    encode(
                        Response(
                            type="result",
                            id=request.id,
                            job_id=job.job_id,
                            ok=job.error is None,
                            value=job.result,
                            error=job.error,
                            code=job.error_code,
                            attempts=job.attempts,
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
            job = self._jobs.get(request.job_id)
            if job is None:
                return Response(
                    type="error",
                    id=request.id,
                    code="unknown_job",
                    error=f"unknown job id {request.job_id!r}",
                )
            return Response(
                type="status",
                id=request.id,
                job_id=job.job_id,
                stage=job.state,
                attempts=job.attempts,
                ok=None if job.state in ("queued", "running") else not job.error,
                value=job.result,
                error=job.error,
                code=job.error_code,
                backend=job.backend,
            )
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        backends: list[JSONDict] = []
        for name in self.ring.nodes:
            link = self.links[name]
            backends.append(
                {
                    "name": name,
                    "host": link.host,
                    "port": link.port,
                    "pid": link.pid,
                    "up": link.last_summary is not None,
                    "breaker_open": link.breaker_is_open(),
                    "summary": link.last_summary,
                }
            )
        summary: JSONDict = {
            "cluster": True,
            "draining": self._draining,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "jobs_by_state": states,
            "backends": backends,
            "ring": {
                node: round(fraction, 6)
                for node, fraction in self.ring.ownership().items()
            },
            "metrics": self.metrics.snapshot(),
            "store": self.store.snapshot(),
        }
        return Response(type="status", id=request.id, value=summary)


# -- local backend spawning / process entry -------------------------------------


@dataclass
class LocalBackend:
    """One locally spawned backend daemon (``--cluster N``)."""

    name: str
    proc: "subprocess.Popen[str]"
    host: str
    port: int


def spawn_local_backends(
    count: int,
    *,
    workers: int,
    queue_depth: int,
    timeout: float,
    drain_grace: float,
    cache_dir: str | None,
    store_dir: str,
    age_seconds: float | None,
    host: str = "127.0.0.1",
) -> list[LocalBackend]:
    """Start ``count`` backend daemons on free ports; parse their ports.

    Backends inherit this process's environment (so ``REPRO_WCET_ENGINE``
    and friends propagate) and all share one cache directory and one
    result store — that sharing is the cluster's whole point.
    """
    args_common = [
        sys.executable, "-m", "repro", "serve",
        "--host", host, "--port", "0",
        "--jobs", str(workers),
        "--queue-depth", str(queue_depth),
        "--timeout", str(timeout),
        "--drain-grace", str(drain_grace),
        "--store-dir", store_dir,
    ]
    if cache_dir is not None:
        args_common += ["--cache-dir", cache_dir]
    if age_seconds is not None:
        args_common += ["--age-seconds", str(age_seconds)]
    procs: list[subprocess.Popen[str]] = []
    for _ in range(count):
        procs.append(
            subprocess.Popen(
                args_common,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        )
    backends: list[LocalBackend] = []
    try:
        for index, proc in enumerate(procs):
            assert proc.stdout is not None
            line = proc.stdout.readline()
            if "listening on" not in line:
                raise ServiceError(
                    f"backend {index} failed to start: {line!r}"
                )
            port = int(line.split(":")[-1].split()[0])
            backends.append(LocalBackend(f"b{index}", proc, host, port))
    except Exception:
        for proc in procs:
            with contextlib.suppress(OSError):
                proc.kill()
        raise
    return backends


async def serve_cluster(
    config: ClusterConfig,
    links: list[BackendLink],
    procs: list[LocalBackend],
) -> None:
    """Run the front tier until SIGTERM completes a graceful fleet drain."""
    front = ClusterFront(config, links, procs)
    await front.start()
    # Keep the backend list (which contains colons) off the first line:
    # tooling parses the front port from the tail of "listening on ...".
    print(
        f"repro-serve: listening on {front.host}:{front.port} "
        f"(cluster front, {len(links)} backends)",
        flush=True,
    )
    members = ", ".join(
        f"{link.name}={link.host}:{link.port}" for link in links
    )
    print(f"repro-serve: ring members {members}", flush=True)
    if front.http is not None:
        print(
            f"repro-serve: metrics on {front.host}:{front.http.port}",
            flush=True,
        )
    loop = asyncio.get_running_loop()
    with signal_handlers(loop, front):
        await front.wait_stopped()
    print("repro-serve: cluster drained, bye", flush=True)


def run_cluster(
    *,
    host: str,
    port: int,
    backends: int,
    workers: int,
    queue_depth: int,
    timeout: float,
    drain_grace: float,
    cache_dir: str | None,
    store_dir: str | None,
    quota_rate: float,
    quota_burst: int,
    age_seconds: float | None,
    vnodes: int,
    metrics_port: int | None = None,
) -> None:
    """CLI entry: spawn N local backends, then serve the front tier."""
    resolved_store = store_dir or str(default_store_dir())
    config = ClusterConfig(
        host=host,
        port=port,
        vnodes=vnodes,
        store_dir=resolved_store,
        quota_rate=quota_rate,
        quota_burst=quota_burst,
        default_timeout=timeout,
        drain_grace=drain_grace,
        metrics_port=metrics_port,
    )
    local = spawn_local_backends(
        backends,
        workers=workers,
        queue_depth=queue_depth,
        timeout=timeout,
        drain_grace=drain_grace,
        cache_dir=cache_dir,
        store_dir=resolved_store,
        age_seconds=age_seconds,
        host=host,
    )
    links = [
        BackendLink(
            b.name,
            b.host,
            b.port,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown,
            pid=b.proc.pid,
        )
        for b in local
    ]
    try:
        asyncio.run(serve_cluster(config, links, local))
    finally:
        for b in local:
            if b.proc.poll() is None:
                with contextlib.suppress(OSError):
                    b.proc.kill()


__all__ = [
    "BackendLink",
    "ClusterConfig",
    "ClusterFront",
    "FrontJob",
    "FrontMetrics",
    "LocalBackend",
    "TokenBucket",
    "run_cluster",
    "serve_cluster",
    "spawn_local_backends",
]

"""Sharded cache-sharing cluster: the digest-routed front tier.

``repro serve --cluster N`` turns the single daemon into a fleet: a
front tier that speaks the exact same line-delimited-JSON protocol as a
single node and routes every job by its coalesce digest to one of N
backend daemons.  :class:`ClusterFront` is the daemon's
:class:`~repro.service.front.JobFront` (admission, quotas, coalescing
across every downstream connection, the shared store, drain) plus a
:class:`ClusterExecutor`, which decides where a job runs:

* **Digest routing** — a consistent-hash ring
  (:mod:`repro.service.ring`) over the digest, so equal payloads land on
  the same backend.  This is VISA's own trick applied to serving: pay
  the heavy speculative work once, and let a cheap bound (here, the
  digest) make the sharing safe.
* **Failover** — a dead backend's keys fail over to their ring
  successor: in-flight jobs on a broken connection are requeued there
  exactly once per death, and a per-backend circuit breaker stops the
  front from hammering a corpse while health checks probe for recovery.
  A backend's ``queue_full`` is load, not failure: it is relayed.
* **Fleet metrics** — the front's exposition aggregates every backend's
  (relabeled ``backend="bN"``) plus fleet roll-ups.

One TCP connection per backend: requests are multiplexed over it by
response ``id``, and the submitter's identity rides along in the
request's ``client`` field so backend fairness still sees real clients.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.errors import ProtocolError, ServiceError
from repro.service.front import (
    FrontConfig,
    JobFront,
    JobRecord,
    cancel_all,
    serve_front,
)
from repro.service.metrics import JobMetrics, Registry, relabel_exposition
from repro.service.protocol import (
    JSONDict,
    Request,
    Response,
    decode_response,
    encode,
)
from repro.service.ring import DEFAULT_VNODES, HashRing
from repro.service.server import ServiceConfig
from repro.service.store import ResultStore, default_store_dir
from repro.service.workers import await_within


#: Seconds between health probes of every backend.
HEALTH_INTERVAL = 1.0
#: Consecutive failures that open a backend's circuit breaker, and the
#: seconds it then stays open.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 5.0


@dataclass(frozen=True)
class ClusterConfig(FrontConfig):
    """Front-tier knobs (exposed as ``repro serve --cluster`` flags)."""

    vnodes: int = DEFAULT_VNODES


class FrontMetrics(JobMetrics):
    """Front-tier collectors; backend series are relabeled on render."""

    def __init__(self) -> None:
        super().__init__("repro_front_")
        reg = self.registry
        self.failovers = reg.counter(
            "repro_front_failovers_total",
            "Jobs requeued to their ring successor after a backend failure.",
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

    def snapshot(self) -> dict[str, float]:
        return {**super().snapshot(), "failovers": self.failovers.total()}


class BackendLink:
    """One backend daemon: a multiplexed connection plus breaker state.

    All requests share one TCP connection; the reader task routes every
    response line to the pending queue registered under its ``id``.  EOF
    (backend death) wakes every pending request with a ``None`` sentinel
    so each in-flight job can fail over independently.  ``proc`` is the
    daemon's process when this front spawned it (``--cluster N``)."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        proc: subprocess.Popen[str] | None = None,
    ):
        self.name = name
        self.host = host
        self.port = port
        self.proc = proc
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

    def breaker_is_open(self) -> bool:
        return time.monotonic() < self._open_until

    def note_success(self) -> None:
        self._failures = 0
        self._open_until = 0.0

    def note_failure(self) -> None:
        self._failures += 1
        if self._failures >= BREAKER_THRESHOLD:
            self._open_until = time.monotonic() + BREAKER_COOLDOWN

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
        await cancel_all([task])


class ClusterExecutor:
    """Routes admitted jobs over the ring of backend links."""

    _front: JobFront

    def __init__(
        self,
        config: ClusterConfig,
        links: list[BackendLink],
        metrics: FrontMetrics,
        store: ResultStore,
    ):
        self.config = config
        self.links: dict[str, BackendLink] = {link.name: link for link in links}
        self.ring = HashRing(self.links, vnodes=config.vnodes)
        self.metrics = metrics
        self.store = store
        self._health_task: asyncio.Task[None] | None = None
        self._run_tasks: set[asyncio.Task[None]] = set()
        for node, fraction in self.ring.ownership().items():
            self.metrics.ring_ownership.set(round(fraction, 6), backend=node)

    async def start(self, front: JobFront) -> None:
        self._front = front
        for link in self.links.values():
            with contextlib.suppress(OSError, ConnectionError):
                await link._ensure_connected()
        self._health_task = asyncio.create_task(self._health_loop())

    def submit(self, record: JobRecord) -> None:
        task = asyncio.create_task(self._run_job(record))
        self._run_tasks.add(task)
        task.add_done_callback(self._run_tasks.discard)

    async def cancel(self) -> None:
        await cancel_all([*self._run_tasks, self._health_task])

    async def close(self, drain: bool) -> None:
        """Close the links, then SIGTERM any locally spawned backends and
        wait for their drains."""
        procs = [link.proc for link in self.links.values() if link.proc]
        for link in self.links.values():
            await link.close()
        _signal_all(procs, signal.SIGTERM if drain else signal.SIGKILL)
        deadline = time.monotonic() + self.config.drain_grace
        while time.monotonic() < deadline:
            if all(proc.poll() is not None for proc in procs):
                return
            await asyncio.sleep(0.05)
        _signal_all(procs, signal.SIGKILL)

    # -- routing / execution ----------------------------------------------------

    async def _run_job(self, record: JobRecord) -> None:
        front = self._front
        record.state = "running"
        self.metrics.jobs_in_flight.set(len(self._run_tasks))
        code = "backend_unavailable"
        error = "no backend available for job"
        try:
            for node in self.ring.preference(record.key):
                link = self.links[node]
                if link.breaker_is_open():
                    continue
                if record.attempts:
                    record.requeues += 1
                    self.metrics.failovers.inc()
                    front._publish_event(record, "requeued")
                record.backend = node
                record.attempts += 1
                response = await self._run_on_backend(record, link)
                if response is None:
                    link.note_failure()
                    code = "backend_down"
                    error = f"backend {node} failed mid-job"
                    continue
                link.note_success()
                if response.type == "error" or not response.ok:
                    front._finish(
                        record,
                        error=response.error or "backend rejected job",
                        code=response.code,
                        retry_after=response.retry_after,
                    )
                else:
                    value = response.value
                    front._finish(
                        record, result=value if isinstance(value, dict) else {}
                    )
                return
            front._finish(record, error=error, code=code)
        finally:
            self.metrics.jobs_in_flight.set(max(0, len(self._run_tasks) - 1))

    async def _run_on_backend(
        self, record: JobRecord, link: BackendLink
    ) -> Response | None:
        """Forward one job; final response, or None to trigger failover."""
        spec = replace(record.spec, payload=record.payload)
        request = Request(
            type="submit",
            id=link.next_id(),
            job=spec,
            wait=True,
            client=record.client,
        )
        try:
            channel = await link.open_channel(request)
        except (OSError, ConnectionError):
            return None
        try:
            budget = (spec.timeout or self.config.default_timeout) + 60.0
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
                    self._front._publish_event(
                        record, response.stage or "event"
                    )
                    continue
                if response.type == "error" and response.code == "draining":
                    return None  # backend is shutting down: fail over
                return response
        finally:
            link.close_channel(request.id)

    # -- health / metrics -------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            for name, link in self.links.items():
                response = await link.call(
                    Request(type="status", id=link.next_id()),
                    timeout=HEALTH_INTERVAL,
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
            await asyncio.sleep(HEALTH_INTERVAL)

    async def render_metrics(self) -> str:
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

    def status_fields(self) -> JSONDict:
        backends: list[JSONDict] = []
        for name in self.ring.nodes:
            link = self.links[name]
            backends.append(
                {
                    "name": name,
                    "host": link.host,
                    "port": link.port,
                    "pid": None if link.proc is None else link.proc.pid,
                    "up": link.last_summary is not None,
                    "breaker_open": link.breaker_is_open(),
                    "summary": link.last_summary,
                }
            )
        return {
            "cluster": True,
            "backends": backends,
            "ring": {
                node: round(fraction, 6)
                for node, fraction in self.ring.ownership().items()
            },
        }


class ClusterFront(JobFront):
    """The front tier: one instance per ``repro serve --cluster`` process."""

    def __init__(self, config: ClusterConfig, links: list[BackendLink]):
        if not links:
            raise ValueError("cluster front needs at least one backend")
        store_path = (
            Path(config.store_dir)
            if config.store_dir is not None
            else default_store_dir()
        )
        store = ResultStore(store_path, owner=f"front-{os.getpid()}")
        metrics = FrontMetrics()
        super().__init__(
            config,
            ClusterExecutor(config, links, metrics, store),
            metrics,
            store,
            id_prefix="c",
            client_prefix="fconn",
        )


# -- local backend spawning / process entry -------------------------------------


def _signal_all(procs: list[subprocess.Popen[str]], sig: int) -> None:
    """Send ``sig`` to every process that is still running."""
    for proc in procs:
        if proc.poll() is None:
            with contextlib.suppress(OSError):
                proc.send_signal(sig)


def spawn_local_backends(
    count: int, config: ServiceConfig
) -> list[BackendLink]:
    """Start ``count`` backend daemons on free ports; link to each.

    Backends inherit this process's environment (so ``REPRO_NO_CACHE``
    and friends propagate) and all share one cache directory and one
    result store — that sharing is the cluster's whole point.  They get
    no quota: the front enforces it, and a backend would count it again.
    """
    args_common = [
        sys.executable, "-m", "repro", "serve",
        "--host", config.host, "--port", "0",
        "--jobs", str(config.workers),
        "--queue-depth", str(config.queue_depth),
        "--timeout", str(config.default_timeout),
        "--drain-grace", str(config.drain_grace),
    ]
    if config.store_dir is not None:
        args_common += ["--store-dir", config.store_dir]
    if config.cache_dir is not None:
        args_common += ["--cache-dir", config.cache_dir]
    if config.age_seconds is not None:
        args_common += ["--age-seconds", str(config.age_seconds)]
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
    backends: list[BackendLink] = []
    try:
        for index, proc in enumerate(procs):
            assert proc.stdout is not None
            line = proc.stdout.readline()
            if "listening on" not in line:
                raise ServiceError(
                    f"backend {index} failed to start: {line!r}"
                )
            port = int(line.split(":")[-1].split()[0])
            backends.append(BackendLink(f"b{index}", config.host, port, proc))
    except Exception:
        _signal_all(procs, signal.SIGKILL)
        raise
    return backends


def run_cluster(service: ServiceConfig, backends: int, vnodes: int) -> None:
    """CLI entry: spawn N local backends, then serve the front tier.

    ``service`` holds the ``repro serve`` flags: the front takes the
    shared front knobs from it, each backend the rest.
    """
    service = replace(
        service, store_dir=service.store_dir or str(default_store_dir())
    )
    shared = {f.name: getattr(service, f.name) for f in fields(FrontConfig)}
    config = ClusterConfig(**shared, vnodes=vnodes)
    links = spawn_local_backends(backends, service)
    members = ", ".join(f"{b.name}={b.host}:{b.port}" for b in links)
    try:
        asyncio.run(
            serve_front(
                ClusterFront(config, links),
                f"cluster front, {len(links)} backends",
                # Kept off the first line: it contains colons.
                f"ring members {members}",
            )
        )
    finally:
        _signal_all([b.proc for b in links if b.proc], signal.SIGKILL)


__all__ = [
    "BackendLink",
    "ClusterConfig",
    "ClusterExecutor",
    "ClusterFront",
    "FrontMetrics",
    "run_cluster",
    "spawn_local_backends",
]

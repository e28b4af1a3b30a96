"""The daemon: a job front over this node's forked worker pool.

:class:`ReproService` is a :class:`~repro.service.front.JobFront` plus a
:class:`LocalExecutor`.  One event loop owns all bookkeeping (queue, job
table, metrics); worker processes own all simulation.  The dispatcher
pops the fair priority queue only when a worker slot is free, so queue
*order* — priority, then per-client round robin — decides who runs
next, not task-spawn races.

Job lifecycle::

    submit -> queued -> running -> done
                 ^         |-> failed          (error/timeout/2nd crash)
                 +--- requeued (worker crash, at most once)
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServiceError
from repro.service.front import (
    FrontConfig,
    JobFront,
    JobRecord,
    cancel_all,
    serve_front,
    signal_handlers,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import JSONDict
from repro.service.queue import FairPriorityQueue, QueueFullError
from repro.service.store import ResultStore
from repro.service.workers import (
    JobFailedError,
    JobTimeoutError,
    WorkerCrashError,
    WorkerPool,
)


@dataclass(frozen=True)
class ServiceConfig(FrontConfig):
    """Daemon knobs (all exposed as ``repro serve`` flags).

    ``age_seconds`` enables priority aging in the fair queue (None =
    off); ``store_dir`` attaches the node to a shared result store so
    completed results are served before forking a worker — in cluster
    mode every backend shares the front tier's store.
    """

    workers: int = 2
    queue_depth: int = 64
    cache_dir: str | None = None
    age_seconds: float | None = None


class LocalExecutor:
    """Runs admitted jobs on this node's worker pool.

    A full queue rejects a submission (``queue_full`` with a
    ``retry_after`` hint).  A worker crash requeues its job once (past
    the depth bound: the job already held a slot); a second crash, a
    timeout or a job error fails it."""

    _front: JobFront

    def __init__(self, config: ServiceConfig, metrics: ServiceMetrics):
        self.config = config
        self.metrics = metrics
        self.queue: FairPriorityQueue[JobRecord] = FairPriorityQueue(
            config.queue_depth, age_seconds=config.age_seconds
        )
        self.pool = WorkerPool(config.workers)
        self._env: dict[str, str] = {}
        if config.cache_dir is not None:
            self._env["REPRO_CACHE_DIR"] = config.cache_dir
        self._queue_event = asyncio.Event()
        self._slots = asyncio.Semaphore(config.workers)
        self._exec_tasks: set[asyncio.Task[None]] = set()
        self._dispatcher: asyncio.Task[None] | None = None
        self._ewma_seconds = 1.0

    async def start(self, front: JobFront) -> None:
        self._front = front
        self.pool.start()
        self.metrics.workers_alive.set(self.pool.alive_count())
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    def submit(self, record: JobRecord) -> None:
        try:
            self.queue.push(
                record, client=record.client, priority=record.spec.priority
            )
        except QueueFullError as exc:
            raise ServiceError(
                str(exc), code="queue_full", retry_after=self._retry_after()
            ) from None
        self.metrics.queue_depth.set(len(self.queue))
        self._queue_event.set()

    def _retry_after(self) -> float:
        """Backpressure hint: roughly one queue turn at recent latency."""
        depth = max(1, len(self.queue))
        return round(
            max(0.1, depth * self._ewma_seconds / self.config.workers), 3
        )

    async def cancel(self) -> None:
        await cancel_all([self._dispatcher, *self._exec_tasks])

    async def close(self, drain: bool) -> None:
        self.pool.close()
        self.metrics.workers_alive.set(0)

    def status_fields(self) -> JSONDict:
        return {
            "queue_depth": len(self.queue),
            "queue_clients": self.queue.clients(),
            "workers": self.pool.info(),
            "worker_restarts": self.pool.restarts,
        }

    async def render_metrics(self) -> str:
        return self.metrics.render_text()

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
        front = self._front
        record.state = "running"
        record.attempts += 1
        self.metrics.jobs_in_flight.set(len(self._exec_tasks))
        front._publish_event(record, "started")
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
                front._publish_event(record, "requeued")
                self.queue.push(
                    record,
                    client=record.client,
                    priority=spec.priority,
                    force=True,
                )
                self.metrics.queue_depth.set(len(self.queue))
                self._queue_event.set()
                return
            front._finish(record, error=str(exc), code="worker_crash")
            return
        except JobTimeoutError as exc:
            self._note_restart()
            front._finish(record, error=str(exc), code="timeout")
            return
        except JobFailedError as exc:
            self.metrics.fold_cache_delta(exc.cache_delta)
            front._finish(record, error=str(exc), code="job_error")
            return
        finally:
            self.metrics.jobs_in_flight.set(max(0, len(self._exec_tasks) - 1))
        elapsed = time.monotonic() - started
        self._ewma_seconds = 0.8 * self._ewma_seconds + 0.2 * elapsed
        self.metrics.job_phase_seconds.observe(
            elapsed, kind=spec.kind, phase="execute"
        )
        self.metrics.fold_cache_delta(delta)
        front._finish(record, result=result)

    def _note_restart(self) -> None:
        self.metrics.worker_restarts.inc()
        self.metrics.workers_alive.set(self.pool.alive_count())


class ReproService(JobFront):
    """The daemon: one instance per ``repro serve`` process."""

    def __init__(self, config: ServiceConfig):
        metrics = ServiceMetrics()
        store = None
        if config.store_dir is not None:
            store = ResultStore(
                Path(config.store_dir), owner=f"backend-{os.getpid()}"
            )
        super().__init__(
            config,
            LocalExecutor(config, metrics),
            metrics,
            store,
            id_prefix="j",
            client_prefix="conn",
        )


async def serve(config: ServiceConfig) -> None:
    """Run the daemon until SIGTERM/SIGINT completes a graceful drain."""
    await serve_front(
        ReproService(config),
        f"{config.workers} workers, queue depth {config.queue_depth}",
    )


__all__ = [
    "LocalExecutor",
    "ReproService",
    "ServiceConfig",
    "serve",
    "signal_handlers",
]

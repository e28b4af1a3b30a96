"""Process worker pool: resident simulators with crash recovery.

Workers are long-lived child processes (the same fork model
:mod:`repro.experiments.parallel` uses for experiment fan-out) that loop
on a duplex pipe: receive ``(job_id, kind, payload, env)``, execute via
the :mod:`repro.service.jobs` registry, reply with the result plus the
job's delta of the whole ``runcache.STATS`` table.  Being resident is the
point — ``runcache.memo``'s set-ups and analyzers, compiled workloads, and
the shared ``.repro_cache/`` directory stay warm across jobs, so a
stream of small queries amortizes all per-process startup the one-shot
CLI pays every time.

Failure handling:

* **Per-job timeout** — the worker is killed (no cooperative
  cancellation exists inside a simulation) and replaced; the caller gets
  :class:`JobTimeoutError`.
* **Worker crash** (segfault, OOM-kill, ``kill -9``) — detected as EOF
  on the pipe; the worker is replaced and the caller gets
  :class:`WorkerCrashError` so the server can requeue the job (once).
* **Job exception** — the worker survives; the exception text comes back
  as :class:`JobFailedError` with the cache delta preserved.

Blocking pipe reads are pushed onto the default thread-pool executor so
the asyncio server stays responsive; killing the child closes its pipe
end, which unblocks any reader thread with ``EOFError``.

Orphan hygiene: with the fork start method every worker inherits copies
of the parent-side pipe fds that already exist (its own and its elder
siblings'), which would keep the socketpairs from ever reaching EOF if
the *server* process is SIGKILLed — the orphaned workers would block in
``recv`` forever.  Workers therefore close those inherited fds on entry
and run a parent-death watchdog thread that exits the process the
moment ``getppid`` stops answering with the server's pid.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time
from multiprocessing.connection import Connection
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from typing import Any, Awaitable, TypeVar

from repro.errors import ReproError
from repro.service.protocol import JSONDict

#: ``(job_id, kind, payload, env)`` request / ``(job_id, ok, result,
#: cache_delta)`` reply, as sent over the worker pipe.
WorkerRequest = tuple[str, str, JSONDict, dict[str, str]]
WorkerReply = tuple[str, bool, Any, dict[str, int]]


class WorkerCrashError(ReproError):
    """The worker process died mid-job (EOF on the pipe)."""


class JobTimeoutError(ReproError):
    """The job exceeded its wall-clock budget; its worker was killed."""


class JobFailedError(ReproError):
    """The job raised inside the worker; carries the cache delta."""

    def __init__(self, message: str, cache_delta: dict[str, int]):
        self.cache_delta = cache_delta
        super().__init__(message)


def _pick_context() -> BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _is_fork(ctx: BaseContext) -> bool:
    return str(getattr(ctx, "_name", "spawn")) == "fork"


#: How often the worker checks that its parent is still alive.
_WATCHDOG_INTERVAL = 1.0


def _parent_watchdog(parent_pid: int) -> None:
    """Exit hard once the parent dies (SIGKILL leaves no other signal)."""
    while True:
        if os.getppid() != parent_pid:
            os._exit(1)
        time.sleep(_WATCHDOG_INTERVAL)


def _worker_main(
    conn: Connection,
    stale_fds: tuple[int, ...] = (),
    parent_pid: int | None = None,
) -> None:
    """Child-process loop: execute jobs until shutdown, EOF, or orphaning."""
    from repro.service import jobs as job_registry
    from repro.snapshot import runcache

    for fd in stale_fds:  # inherited parent-side pipe ends (fork only)
        try:
            os.close(fd)
        except OSError:
            pass
    if parent_pid is not None:
        threading.Thread(
            target=_parent_watchdog,
            args=(parent_pid,),
            daemon=True,
            name="parent-watchdog",
        ).start()

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:  # graceful shutdown
            conn.close()
            return
        job_id, kind, payload, env = message
        for key, value in env.items():
            os.environ[key] = value
        before = runcache.STATS.copy()
        ok = True
        result: Any
        try:
            result = job_registry.execute(kind, payload)
        except Exception as exc:
            ok = False
            result = f"{type(exc).__name__}: {exc}"
        delta = dict(runcache.STATS - before)
        try:
            conn.send((job_id, ok, result, delta))
        except (BrokenPipeError, OSError):
            return


_T = TypeVar("_T")


async def await_within(aw: Awaitable[_T], timeout: float) -> _T:
    """``await aw`` bounded by ``timeout`` seconds; cancels ``aw`` and
    raises ``asyncio.TimeoutError`` when it does not finish in time.

    Unlike ``asyncio.wait_for`` before Python 3.12, a cancellation that
    lands just as ``aw`` finishes is never swallowed: swallowed, it would
    leave a cancelled health loop or job task running, and the drain that
    awaits it (``ReproService.shutdown``) would never end.
    """
    inner = asyncio.ensure_future(aw)
    try:
        await asyncio.wait({inner}, timeout=timeout)
    except asyncio.CancelledError:
        inner.cancel()
        raise
    if inner.done():
        return inner.result()
    inner.cancel()
    raise asyncio.TimeoutError


class WorkerHandle:
    """One worker process plus the server's end of its pipe."""

    def __init__(
        self,
        index: int,
        ctx: BaseContext,
        stale_fds: tuple[int, ...] = (),
    ):
        self.index = index
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn: Connection = parent_conn
        if _is_fork(ctx):
            # The child also inherits a copy of *this* pipe's parent end;
            # it must close it or its own recv can never see EOF.
            stale_fds = stale_fds + (parent_conn.fileno(),)
        self.process: BaseProcess = ctx.Process(
            target=_worker_main,
            args=(child_conn, stale_fds, os.getpid()),
            daemon=True,
            name=f"repro-worker-{index}",
        )
        self.process.start()
        child_conn.close()
        self.busy_job: str | None = None

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, message: WorkerRequest) -> None:
        self.conn.send(message)

    def recv(self) -> WorkerReply:
        reply = self.conn.recv()
        return (
            str(reply[0]), bool(reply[1]), reply[2], dict(reply[3])
        )

    def kill(self) -> None:
        """Hard-stop the process; unblocks any pending ``recv``."""
        try:
            self.process.kill()
            self.process.join(timeout=5.0)
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass

    def shutdown(self, grace: float = 2.0) -> None:
        """Ask the loop to exit; escalate to kill after ``grace``."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=grace)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


class WorkerPool:
    """Fixed-size pool of :class:`WorkerHandle` with async job dispatch."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self._ctx = _pick_context()
        self._next_index = 0
        self._handles: list[WorkerHandle] = []
        self._idle: asyncio.Queue[WorkerHandle] = asyncio.Queue()
        self.restarts = 0
        self._closed = False

    def start(self) -> None:
        """Spawn every worker (before the server accepts connections)."""
        for _ in range(self.size):
            handle = self._spawn()
            self._idle.put_nowait(handle)

    def _spawn(self) -> WorkerHandle:
        stale: list[int] = []
        if _is_fork(self._ctx):
            # Elder siblings' parent-side pipe ends, inherited at fork:
            # closed in the child so a sibling's EOF semantics survive.
            for other in self._handles:
                try:
                    stale.append(other.conn.fileno())
                except (OSError, ValueError):
                    pass
        handle = WorkerHandle(self._next_index, self._ctx, tuple(stale))
        self._next_index += 1
        self._handles.append(handle)
        return handle

    def _replace(self, dead: WorkerHandle) -> WorkerHandle:
        """Kill and forget ``dead``; spawn and return its replacement."""
        dead.kill()
        if dead in self._handles:
            self._handles.remove(dead)
        self.restarts += 1
        return self._spawn()

    def alive_count(self) -> int:
        return sum(1 for handle in self._handles if handle.alive())

    def info(self) -> list[dict[str, Any]]:
        """Per-worker view for ``status`` responses (pid, busy job)."""
        return [
            {
                "index": handle.index,
                "pid": handle.pid,
                "alive": handle.alive(),
                "busy_job": handle.busy_job,
            }
            for handle in sorted(self._handles, key=lambda h: h.index)
        ]

    async def run_job(
        self,
        job_id: str,
        kind: str,
        payload: JSONDict,
        env: dict[str, str],
        timeout: float,
    ) -> tuple[JSONDict, dict[str, int]]:
        """Execute one job on the next idle worker.

        Returns ``(result, cache_delta)`` or raises
        :class:`JobTimeoutError` / :class:`WorkerCrashError` /
        :class:`JobFailedError`.  The worker slot is always returned to
        the idle queue — as a fresh process when the incumbent died, timed
        out, or was left running by a cancelled caller.
        """
        handle = await self._idle.get()
        try:
            handle.busy_job = job_id
            try:
                handle.send((job_id, kind, payload, env))
            except (BrokenPipeError, OSError):
                handle = self._replace(handle)
                raise WorkerCrashError(
                    f"worker died before accepting job {job_id}"
                ) from None
            loop = asyncio.get_running_loop()
            try:
                reply = await await_within(
                    loop.run_in_executor(None, handle.recv), timeout
                )
            except asyncio.CancelledError:
                # An executor thread is still blocked in recv on this
                # worker's pipe and the job may still be running: never
                # hand the worker back idle.
                handle = self._replace(handle)
                raise
            except asyncio.TimeoutError:
                handle = self._replace(handle)
                raise JobTimeoutError(
                    f"job {job_id} exceeded {timeout:.1f}s; worker killed"
                ) from None
            except (EOFError, OSError):
                handle = self._replace(handle)
                raise WorkerCrashError(
                    f"worker died while running job {job_id}"
                ) from None
            _, ok, result, delta = reply
            if not ok:
                raise JobFailedError(str(result), delta)
            return dict(result), delta
        finally:
            handle.busy_job = None
            if not self._closed:
                self._idle.put_nowait(handle)

    def close(self) -> None:
        """Shut every worker down (graceful, then kill)."""
        self._closed = True
        for handle in list(self._handles):
            handle.shutdown()
        self._handles.clear()


__all__ = [
    "JobFailedError",
    "JobTimeoutError",
    "WorkerCrashError",
    "WorkerHandle",
    "WorkerPool",
    "await_within",
]

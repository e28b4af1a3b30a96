"""Integration tests for ``repro serve`` — the daemon as a black box.

Most tests boot a real daemon subprocess (exercising the CLI entry
point, the fork worker pool, and the signal handlers) against an
isolated cache directory, and drive it through the blocking client
library over real TCP.  Covered here:

* 32 concurrent mixed-type submissions, with the byte-identical subset
  coalesced to a single simulation (asserted via the coalesce counter
  and the aggregated run-cache counters fed by ``runcache.STATS``);
* worker crash mid-job -> restart + requeue exactly once, then fail;
* a SIGKILLed daemon leaves no worker behind (parent-death watchdog);
* per-job timeout -> worker killed, job fails, service stays healthy;
* queue-full backpressure with a ``retry_after`` hint;
* SIGTERM -> in-flight jobs drain, new submissions rejected, clean exit;
  jobs still unfinished when the drain grace runs out end ``draining``;
* store hits count in the per-kind latency histogram;
* per-host token-bucket quotas (``code="quota"`` + ``retry_after``):
  a ``client`` field on the wire changes nothing, and reconnecting
  does not refill the bucket;
* jittered ``submit_retry`` backoff: two clients hammering a 1-slot
  queue both finish;
* ``ping()`` on an unreachable port is False.

The conversation, quota-identity and bad-timeout tests drive an
in-process :class:`~repro.service.server.ReproService` on port 0 over
raw protocol lines instead, to check exact response frames and the
daemon's own state.  The drain-task, ``await_within`` and cancelled-job
tests check single pieces of the daemon without running one.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from pathlib import Path
from random import Random
from typing import Any

import pytest

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import ReproService, ServiceConfig
from repro.service.workers import WorkerPool, await_within
from tests.conftest import serve_daemon

#: A job slow enough (seconds) to observe mid-flight, fast enough to drain.
SLOW_RUN = {"workload": "srt", "instances": 90, "no_cache": True}


def _client(port: int) -> ServiceClient:
    return ServiceClient("127.0.0.1", port, timeout=120.0)


def _wait_for_busy_pid(client: ServiceClient, deadline: float = 30.0) -> int:
    """Poll ``status`` until some worker reports a busy job; return its pid."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        workers = client.status().value["workers"]
        busy = [w for w in workers if w["busy_job"] and w["pid"]]
        if busy:
            return int(busy[0]["pid"])
        time.sleep(0.02)
    raise AssertionError("no worker went busy before the deadline")


def test_mixed_concurrent_submissions_with_coalescing(tmp_path):
    """32 concurrent mixed submissions; identical ones simulate once."""
    identical = {"workload": "fft", "instances": 10}
    with serve_daemon(tmp_path, "--jobs", "4") as (proc, port):
        results: dict[int, object] = {}
        errors: dict[int, BaseException] = {}

        def submit(index: int, kind: str, payload: dict) -> None:
            try:
                with _client(port) as client:
                    results[index] = client.submit_retry(kind, payload)
            except BaseException as exc:  # surfaced after join
                errors[index] = exc

        jobs: list[tuple[str, dict]] = []
        jobs += [("run", dict(identical))] * 8  # the coalesce subset
        jobs += [
            ("run", {"workload": "lms", "instances": n}) for n in (6, 8)
        ]
        jobs += [("run", {"workload": "cnt", "deadline": "loose"})] * 2
        jobs += [("wcet", {"workload": name}) for name in ("mm", "adpcm")] * 4
        jobs += [("lint", {"workload": "crc"})] * 6
        jobs += [("experiment", {"name": "table3"})] * 6
        assert len(jobs) == 32

        threads = [
            threading.Thread(target=submit, args=(i, kind, payload))
            for i, (kind, payload) in enumerate(jobs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, f"submissions failed: {errors}"
        assert len(results) == 32

        # Identical submissions all completed correctly with one result...
        identical_results = [results[i] for i in range(8)]
        job_ids = {r.job_id for r in identical_results}
        savings = {round(r.value["savings"], 9) for r in identical_results}
        assert len(job_ids) == 1, "identical submissions must share one job"
        assert len(savings) == 1

        with _client(port) as client:
            # ...because concurrency-duplicates attached to one in-flight
            # job: at least the 7 run duplicates coalesced (the duplicated
            # wcet/lint/experiment submissions add more).
            coalesced = client.metric_value("repro_jobs_coalesced_total")
            assert coalesced >= 7 + 3
            # The coalesced subset reached a worker exactly once: only 3
            # distinct run-job payload groups of the 12 'run' submissions
            # executed, observable as exactly 4 executed run jobs (1 fft +
            # 2 lms + 1 cnt) in the completion counter.
            executed_runs = client.metric_value(
                'repro_jobs_completed_total{kind="run",outcome="ok"}'
            )
            assert executed_runs == 4
            # runcache.STATS deltas flowed back from the workers: every
            # executed run simulated cold (2 stores each: visa + simple).
            stores = client.metric_value(
                'repro_cache_ops_total{kind="run",op="stores"}'
            )
            assert stores == 8
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0


#: Jobs that read set-up, warm-up and admit entries: figure4's 6
#: workloads x 4 rates share one set-up and two warm-up prefixes each.
CACHE_JOBS = [
    ("experiment", {"name": "figure4", "instances": 8}),
    ("admit", {"tasks": [{"workload": "cnt", "period": 0.01}]}),
]


def _cache_ops(tmp_path: Path) -> dict[tuple[str, str], float]:
    """Run :data:`CACHE_JOBS` on a fresh daemon; its cache ops by
    (kind, op).  Then drop the run entries, so the next daemon's jobs
    read the set-up, warm-up and admit entries back."""
    with serve_daemon(tmp_path) as (proc, port):
        with _client(port) as client:
            for kind, payload in CACHE_JOBS:
                assert client.submit(kind, payload).ok
            ops = {
                (kind, op): client.metric_value(
                    f'repro_cache_ops_total{{kind="{kind}",op="{op}"}}'
                )
                for kind in ("setup", "warmup", "admit")
                for op in ("hits", "misses", "stores", "memo_hits")
            }
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    for path in (tmp_path / "cache").glob("run-*"):
        path.unlink()
    return ops


def test_worker_cache_counts_reach_metrics(tmp_path):
    """A worker ships its whole ``runcache.STATS`` delta, so the set-up,
    warm-up and admit entries its jobs write and read, and their
    in-memory reuse, show in ``repro_cache_ops_total{kind=...}``."""
    cold = _cache_ops(tmp_path)
    assert cold["setup", "stores"] == cold["setup", "misses"] == 6
    assert cold["warmup", "stores"] == cold["warmup", "misses"] == 12
    assert cold["admit", "stores"] == cold["admit", "misses"] == 1
    # Rates after the first reuse their set-up in memory, and so do the
    # rates whose (non-empty) flush set differs from the first's warm-up.
    assert cold["setup", "memo_hits"] == 6 * 3
    assert cold["warmup", "memo_hits"] > 0
    warm = _cache_ops(tmp_path)
    assert warm["setup", "hits"] == 6 and warm["setup", "stores"] == 0
    assert warm["warmup", "hits"] == 12 and warm["warmup", "stores"] == 0
    assert warm["admit", "hits"] == 1 and warm["admit", "stores"] == 0


def test_worker_crash_restart_and_requeue_once(tmp_path):
    """A killed worker is replaced and the job requeued exactly once."""
    with serve_daemon(tmp_path, "--jobs", "1") as (proc, port):
        done: dict[str, object] = {}

        def run_slow() -> None:
            with _client(port) as client:
                done["result"] = client.submit("run", dict(SLOW_RUN))

        thread = threading.Thread(target=run_slow)
        thread.start()
        with _client(port) as client:
            os.kill(_wait_for_busy_pid(client), signal.SIGKILL)
            thread.join(timeout=120)
            assert not thread.is_alive()
            result = done["result"]
            assert result.ok and result.attempts == 2
            assert client.metric_value("repro_worker_restarts_total") == 1
            assert client.metric_value("repro_jobs_requeued_total") == 1


def test_worker_crash_twice_fails_job(tmp_path):
    """The second crash of the same job fails it (no requeue loop)."""
    with serve_daemon(tmp_path, "--jobs", "1") as (proc, port):
        failure: dict[str, BaseException] = {}

        def run_slow() -> None:
            with _client(port) as client:
                try:
                    client.submit("run", dict(SLOW_RUN))
                except ServiceError as exc:
                    failure["error"] = exc

        thread = threading.Thread(target=run_slow)
        thread.start()
        with _client(port) as client:
            first_pid = _wait_for_busy_pid(client)
            os.kill(first_pid, signal.SIGKILL)
            second_pid = first_pid
            deadline = time.monotonic() + 60
            while second_pid == first_pid and time.monotonic() < deadline:
                second_pid = _wait_for_busy_pid(client)
                if second_pid == first_pid:
                    time.sleep(0.02)
            assert second_pid != first_pid, "job was not retried on a new worker"
            os.kill(second_pid, signal.SIGKILL)
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert failure["error"].code == "worker_crash"
            assert client.metric_value("repro_worker_restarts_total") == 2
            assert client.metric_value("repro_jobs_requeued_total") == 1


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def test_sigkilled_daemon_leaves_no_orphan_workers(tmp_path):
    """A daemon killed with SIGKILL cannot close its pool; the workers'
    parent-death watchdog must end them anyway, busy or idle."""
    with serve_daemon(tmp_path, "--jobs", "2") as (proc, port):
        with _client(port) as client:
            client.submit("noop", {"tag": "held", "sleep_ms": 30_000},
                          wait=False)
            _wait_for_busy_pid(client)
            pids = [
                int(worker["pid"])
                for worker in client.status().value["workers"]
                if worker["pid"]
            ]
        assert len(pids) == 2
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while any(_pid_alive(pid) for pid in pids):
            assert time.monotonic() < deadline, f"orphaned workers: {pids}"
            time.sleep(0.1)


def test_job_timeout_kills_worker_and_fails_job(tmp_path):
    """A job over its wall-clock budget fails; the service stays healthy."""
    with serve_daemon(tmp_path, "--jobs", "1") as (proc, port):
        with _client(port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit("run", dict(SLOW_RUN), timeout=0.3)
            assert excinfo.value.code == "timeout"
            assert client.metric_value("repro_worker_restarts_total") == 1
            # The replacement worker serves the next job fine.
            result = client.submit("wcet", {"workload": "cnt"})
            assert result.ok and result.value["total_cycles"] > 0


def test_queue_full_backpressure(tmp_path):
    """Submissions beyond the queue bound are rejected with retry-after."""
    with serve_daemon(
        tmp_path, "--jobs", "1", "--queue-depth", "2"
    ) as (proc, port):
        with _client(port) as client:
            # Occupy the worker, then fill the two queue slots.  Distinct
            # payloads so none of them coalesce.
            client.submit("run", dict(SLOW_RUN), wait=False)
            _wait_for_busy_pid(client)
            for instances in (91, 92):
                client.submit(
                    "run", dict(SLOW_RUN, instances=instances), wait=False
                )
            with pytest.raises(ServiceError) as excinfo:
                client.submit("run", dict(SLOW_RUN, instances=93), wait=False)
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.retry_after > 0
            assert client.metric_value("repro_jobs_rejected_total") == 1


def test_sigterm_drains_in_flight_and_rejects_new(tmp_path):
    """SIGTERM: accepted jobs finish, new ones bounce, exit is clean."""
    with serve_daemon(tmp_path, "--jobs", "1") as (proc, port):
        done: dict[str, object] = {}

        def run_slow() -> None:
            with _client(port) as client:
                done["result"] = client.submit("run", dict(SLOW_RUN))

        thread = threading.Thread(target=run_slow)
        thread.start()
        with _client(port) as client:
            _wait_for_busy_pid(client)
            proc.send_signal(signal.SIGTERM)
            # The listener stays up during the drain; new submissions are
            # rejected with the draining code.
            time.sleep(0.1)
            with pytest.raises(ServiceError) as excinfo:
                client.submit("wcet", {"workload": "cnt"})
            assert excinfo.value.code == "draining"
        thread.join(timeout=120)
        assert not thread.is_alive()
        result = done["result"]
        assert result.ok, "in-flight job must complete during the drain"
        assert proc.wait(timeout=60) == 0, "drain must exit cleanly"


def test_drain_grace_expiry_sends_draining_to_every_waiter(tmp_path):
    """Jobs still running or queued when ``--drain-grace`` runs out end
    with a ``draining`` result, not a dropped connection."""
    with serve_daemon(
        tmp_path, "--jobs", "1", "--drain-grace", "0.5"
    ) as (proc, port):
        errors: dict[str, ServiceError] = {}

        def wait_on(tag: str) -> None:
            with _client(port) as client:
                try:
                    client.submit("noop", {"tag": tag, "sleep_ms": 5000})
                except ServiceError as exc:
                    errors[tag] = exc

        threads = [
            threading.Thread(target=wait_on, args=(tag,))
            for tag in ("running", "queued")
        ]
        with _client(port) as client:
            threads[0].start()
            _wait_for_busy_pid(client)
            threads[1].start()
            deadline = time.monotonic() + 30
            while client.status().value["queue_depth"] < 1:
                assert time.monotonic() < deadline, "job never queued"
                time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert {tag: exc.code for tag, exc in errors.items()} == {
            "running": "draining",
            "queued": "draining",
        }
        assert proc.wait(timeout=30) == 0


def test_store_hits_count_in_job_seconds(tmp_path):
    """A job served from the store is observed in ``repro_job_seconds``
    like an executed one."""
    with serve_daemon(
        tmp_path, "--jobs", "1", "--store-dir", str(tmp_path / "store")
    ) as (proc, port):
        with _client(port) as client:
            first = client.submit("wcet", {"workload": "cnt"})
            second = client.submit("wcet", {"workload": "cnt"})
            assert second.value == first.value
            assert client.metric_value(
                'repro_jobs_completed_total{kind="wcet",outcome="store"}'
            ) == 1
            assert client.metric_value(
                'repro_job_seconds_count{kind="wcet"}'
            ) == 2


QUOTA = ("--quota-rate", "0.5", "--quota-burst", "2")


def _assert_quota_enforced(port: int) -> None:
    with _client(port) as client:
        for i in range(2):
            assert client.submit("noop", {"tag": f"q{i}"}).ok
        with pytest.raises(ServiceError) as excinfo:
            client.submit("noop", {"tag": "q-over"})
        assert excinfo.value.code == "quota"
        assert excinfo.value.retry_after > 0


def test_daemon_quota_rejects_with_retry_after(tmp_path):
    """The single daemon shares the front's admission, quota included."""
    with serve_daemon(tmp_path, "--jobs", "1", *QUOTA) as (_proc, port):
        _assert_quota_enforced(port)


def test_jittered_retry_two_clients_one_slot_queue(tmp_path):
    """Two clients vs a 1-slot queue; jittered backoff means both
    eventually get every job through the queue_full storm."""
    with serve_daemon(
        tmp_path, "--jobs", "1", "--queue-depth", "1"
    ) as (_proc, port):
        outcomes: dict[str, list[bool]] = {"a": [], "b": []}

        def drive(name: str, seed: int) -> None:
            client = ServiceClient(
                "127.0.0.1", port, timeout=120.0, jitter=Random(seed)
            )
            with client:
                for i in range(3):
                    result = client.submit_retry(
                        "noop",
                        {"tag": f"{name}-{i}", "sleep_ms": 150},
                        max_attempts=12,
                    )
                    outcomes[name].append(result.ok)

        threads = [
            threading.Thread(target=drive, args=("a", 1)),
            threading.Thread(target=drive, args=("b", 2)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert outcomes["a"] == [True, True, True]
        assert outcomes["b"] == [True, True, True]


def test_ping_false_when_unreachable():
    assert ServiceClient("127.0.0.1", 1, timeout=0.5).ping() is False


def test_result_matches_direct_simulation(tmp_path):
    """The service's run job returns the same numbers as the library."""
    from repro.experiments.common import run_pair, setup
    from repro.snapshot import runcache

    with runcache.no_cache_override(True):
        prep = setup("lms", "tiny")
        pair = run_pair(prep, prep.deadline_tight, 8)
    expected = pair.savings(standby=False)
    with serve_daemon(tmp_path, "--jobs", "1") as (proc, port):
        with _client(port) as client:
            result = client.submit(
                "run", {"workload": "lms", "instances": 8}
            )
    assert result.value["savings"] == pytest.approx(expected, abs=1e-12)


def test_signal_drain_task_survives_gc():
    """The drain task SIGTERM starts is held until it finishes.

    The event loop keeps only weak references to tasks.  This fake
    service's shutdown waits on a future nothing else holds (its waker
    reaches it through a weak reference, like a finished I/O callback),
    so only the signal helper's reference keeps the drain alive across
    the forced collections.
    """
    import asyncio
    import gc
    import weakref

    from repro.service.server import signal_handlers

    class FakeService:
        drained = False

        async def shutdown(self, drain: bool) -> None:
            loop = asyncio.get_running_loop()
            waiter = loop.create_future()
            ref = weakref.ref(waiter)

            def wake() -> None:
                fut = ref()
                if fut is not None and not fut.done():
                    fut.set_result(None)

            loop.call_later(0.05, wake)
            await waiter
            self.drained = drain

    async def main(service: FakeService) -> None:
        loop = asyncio.get_running_loop()
        with signal_handlers(loop, service):
            os.kill(os.getpid(), signal.SIGTERM)
            for _ in range(20):
                await asyncio.sleep(0.01)
                gc.collect()
                if service.drained:
                    break

    service = FakeService()
    asyncio.run(main(service))
    assert service.drained


def test_get_within_never_swallows_cancellation():
    """A cancel that lands just as the item arrives still cancels.

    ``asyncio.wait_for`` before Python 3.12 returns the item instead, so
    a cancelled health loop kept running and the front's SIGTERM drain
    waited on it forever.  The cancel is tried at every loop step
    between the item's arrival and the getter's return.
    """

    async def cancel_after(steps: int) -> str:
        queue: asyncio.Queue = asyncio.Queue()
        task = asyncio.ensure_future(await_within(queue.get(), 5.0))
        await asyncio.sleep(0)  # the getter is waiting
        queue.put_nowait("item")
        for _ in range(steps):
            await asyncio.sleep(0)
        if task.done():
            return f"returned {task.result()}"
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            return "cancelled"
        return "swallowed"

    outcomes = [asyncio.run(cancel_after(steps)) for steps in range(8)]
    assert "swallowed" not in outcomes, outcomes
    assert outcomes[0] == "cancelled"
    assert outcomes[-1] == "returned item"

    async def times_out() -> None:
        with pytest.raises(asyncio.TimeoutError):
            await await_within(asyncio.Queue().get(), 0.01)

    asyncio.run(times_out())


def test_cancelled_job_never_returns_its_worker_idle():
    """A job task cancelled while its worker runs replaces the worker.

    The reply wait runs ``handle.recv`` on an executor thread, which a
    cancel cannot stop: handing the worker back idle would let the next
    job share its pipe with that blocked thread and a still-running job.
    The cancel also reaches the caller instead of being swallowed.
    """

    def noop(tag: str, sleep_ms: int) -> dict:
        return {"tag": tag, "sleep_ms": sleep_ms, "echo": {}}

    async def main() -> None:
        pool = WorkerPool(1)
        pool.start()
        try:
            (first,) = pool._handles
            task = asyncio.ensure_future(
                pool.run_job("slow", "noop", noop("slow", 30_000), {}, 60.0)
            )
            await asyncio.sleep(0.3)  # sent; the reader thread is blocked
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert not first.alive()
            assert pool.restarts == 1
            (second,) = pool._handles
            assert second is not first
            result, _ = await pool.run_job(
                "next", "noop", noop("next", 0), {}, 60.0
            )
            assert result["tag"] == "next"
        finally:
            pool.close()

    asyncio.run(main())


# -- in-process daemon, raw protocol lines ----------------------------------------


LINT = {"source": "void main() { int x; x = 1; }"}
NOOP = {"tag": "shared", "sleep_ms": 400}


def _line(**message: Any) -> bytes:
    return (json.dumps({"v": PROTOCOL_VERSION, **message}) + "\n").encode()


def _submit(rid: str, kind: str, payload: dict[str, Any]) -> bytes:
    job = {"kind": kind, "payload": payload}
    return _line(type="submit", id=rid, wait=True, job=job)


class _Conn:
    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "_Conn":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def send(self, line: bytes) -> None:
        self.writer.write(line)
        await self.writer.drain()

    async def read(self, count: int = 1) -> list[dict[str, Any]]:
        return [
            json.loads(await asyncio.wait_for(self.reader.readline(), 30))
            for _ in range(count)
        ]

    def close(self) -> None:
        self.writer.close()


async def _converse(service: ReproService) -> list[dict[str, Any]]:
    """Drive the conversation; shuts the daemon down at the end."""
    a, b = await _Conn.open(service.port), await _Conn.open(service.port)
    frames: list[dict[str, Any]] = []
    await a.send(_line(type="ping", id="a0"))
    frames += await a.read()
    # A waited submit (accepted, started), then a coalesced duplicate.
    await a.send(_submit("a1", "noop", NOOP))
    frames += await a.read(2)
    await b.send(_submit("b1", "noop", NOOP))
    frames += await b.read()
    frames += await a.read() + await b.read()
    # The second identical lint job is answered from the result store.
    await a.send(_submit("a2", "lint", LINT))
    frames += await a.read(3)
    await a.send(_submit("a3", "lint", LINT))
    frames += await a.read(2)
    await a.send(_line(type="status", id="a4", job_id=frames[-1]["job_id"]))
    await a.send(_line(type="status", id="a5", job_id="x000099"))
    await a.send(b"{not json\n")
    frames += await a.read(3)
    drain = asyncio.create_task(service.shutdown(drain=True))
    await asyncio.sleep(0)  # the drain task runs up to its first await
    await a.send(_submit("a6", "noop", {"tag": "late"}))
    frames += await a.read()
    a.close()
    b.close()
    await drain
    return frames


def _in_process_config(tmp_path: Path, **fields: Any) -> ServiceConfig:
    return ServiceConfig(
        port=0, workers=1, cache_dir=str(tmp_path / "cache"), **fields
    )


def test_daemon_conversation_frames(tmp_path: Path) -> None:
    """One protocol conversation, frame by frame: a waited submit with a
    coalesced duplicate, a store hit, status by job id and for an
    unknown id, a malformed request line and a submit during the
    drain."""

    async def main() -> list[dict[str, Any]]:
        service = ReproService(
            _in_process_config(tmp_path, store_dir=str(tmp_path / "store"))
        )
        await service.start()
        try:
            return await _converse(service)
        finally:
            await service.shutdown(drain=False)  # no-op once drained

    frames = asyncio.run(main())
    assert [(f["type"], f.get("id")) for f in frames] == [
        ("pong", "a0"),
        ("accepted", "a1"),
        ("event", "a1"),
        ("accepted", "b1"),
        ("result", "a1"),
        ("result", "b1"),
        ("accepted", "a2"),
        ("event", "a2"),
        ("result", "a2"),
        ("accepted", "a3"),
        ("result", "a3"),
        ("status", "a4"),
        ("error", "a5"),
        ("error", "?"),
        ("error", "a6"),
    ]
    assert frames[3]["coalesced"] is True
    assert frames[9]["stage"] == "done"  # served from the store
    assert [f.get("code") for f in frames[12:]] == [
        "unknown_job", "bad_request", "draining",
    ]


def test_quota_is_keyed_by_connection_not_a_client_field(
    tmp_path: Path,
) -> None:
    """A connection that names a fresh ``client`` in every submit still
    runs its own bucket dry: the field is not an identity, and the
    bucket table does not grow with the names it carries."""

    async def main(service: ReproService) -> list[str | None]:
        conn = await _Conn.open(service.port)
        codes = []
        for i in range(6):
            job = {"kind": "noop", "payload": {"tag": f"t{i}"}}
            await conn.send(
                _line(
                    type="submit", id=f"s{i}", wait=False, job=job,
                    client=f"forged-{i}",
                )
            )
            (frame,) = await conn.read()
            codes.append(frame.get("code"))
        conn.close()
        return codes

    async def run() -> tuple[list[str | None], int]:
        service = ReproService(
            _in_process_config(tmp_path, quota_rate=0.01, quota_burst=1)
        )
        await service.start()
        try:
            codes = await main(service)
            return codes, len(service.quota._buckets)
        finally:
            await service.shutdown(drain=False)

    codes, buckets = asyncio.run(run())
    assert codes == [None] + ["quota"] * 5
    assert buckets == 1


def test_quota_survives_reconnects(tmp_path: Path) -> None:
    """The quota is keyed on the peer host: five submits over five fresh
    connections share one bucket (one accept, four ``quota`` rejects)
    and the bucket table holds one entry, not one per connection."""

    async def run() -> tuple[list[str | None], int]:
        service = ReproService(
            _in_process_config(tmp_path, quota_rate=0.01, quota_burst=1)
        )
        await service.start()
        try:
            codes = []
            for i in range(5):
                conn = await _Conn.open(service.port)
                job = {"kind": "noop", "payload": {"tag": f"r{i}"}}
                await conn.send(
                    _line(type="submit", id=f"r{i}", wait=False, job=job)
                )
                (frame,) = await conn.read()
                codes.append(frame.get("code"))
                conn.close()
            return codes, len(service.quota._buckets)
        finally:
            await service.shutdown(drain=False)

    codes, buckets = asyncio.run(run())
    assert codes == [None] + ["quota"] * 4
    assert buckets == 1


@pytest.mark.parametrize(
    "timeout", ["-1", "0", "NaN", "Infinity", "true"],
    ids=["negative", "zero", "nan", "infinity", "bool"],
)
def test_bad_job_timeout_is_a_bad_request(tmp_path: Path, timeout: str) -> None:
    """A timeout that is not a finite number of seconds above 0 is
    refused at decode time: no job is queued and no worker is killed."""

    async def run() -> tuple[dict[str, Any], dict[str, Any], float]:
        service = ReproService(_in_process_config(tmp_path))
        await service.start()
        try:
            conn = await _Conn.open(service.port)
            await conn.send(
                b'{"v": %d, "type": "submit", "id": "bad", "job": '
                b'{"kind": "noop", "payload": {"sleep_ms": 300}, '
                b'"timeout": %s}}\n' % (PROTOCOL_VERSION, timeout.encode())
            )
            (bad,) = await conn.read()
            # A valid job afterwards runs on the original worker.
            await conn.send(_submit("ok", "noop", {"tag": "after"}))
            frames = await conn.read(3)
            conn.close()
            return bad, frames[-1], service.metrics.worker_restarts.total()
        finally:
            await service.shutdown(drain=False)

    bad, after, restarts = asyncio.run(run())
    assert bad["type"] == "error" and bad["code"] == "bad_request"
    assert "timeout" in bad["error"]
    assert after["type"] == "result" and after["ok"] is True
    assert restarts == 0

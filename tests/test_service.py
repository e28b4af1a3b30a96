"""Integration tests for ``repro serve`` — the daemon as a black box.

Every test boots a real daemon subprocess (exercising the CLI entry
point, the fork worker pool, and the signal handlers) against an
isolated cache directory, and drives it through the blocking client
library over real TCP.  Covered here:

* 32 concurrent mixed-type submissions, with the byte-identical subset
  coalesced to a single simulation (asserted via the coalesce counter
  and the aggregated run-cache counters fed by ``runcache.STATS``);
* worker crash mid-job -> restart + requeue exactly once, then fail;
* per-job timeout -> worker killed, job fails, service stays healthy;
* queue-full backpressure with a ``retry_after`` hint;
* SIGTERM -> in-flight jobs drain, new submissions rejected, clean exit;
  jobs still unfinished when the drain grace runs out end ``draining``;
* store hits count in the per-kind latency histogram;
* ``ping()`` on an unreachable port is False.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service.client import ServiceClient
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
                'repro_run_cache_ops_total{op="stores"}'
            )
            assert stores == 8
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0


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

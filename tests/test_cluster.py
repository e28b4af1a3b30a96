"""Cluster tests: the digest-routed front tier as a black box, plus the
front's unit-testable pieces (token buckets, relabeling, aging, noop).

Integration tests boot a real ``repro serve --cluster N`` process tree
(front + N backend daemons + their worker pools) against isolated cache
and store directories, and drive it with the unchanged blocking client.
Covered here:

* fleet coalescing — the same digest submitted over two front
  connections executes once;
* shared-store serving — a completed digest is answered by the front
  without touching a backend;
* SIGKILL failover — killing the owning backend mid-job requeues the
  job on its ring successor exactly once and the client still gets its
  result;
* byte-identical results between the single-node and cluster paths for
  run/wcet/lint (digest parity);
* per-client token-bucket quotas (``code="quota"`` + ``retry_after``),
  on the front and on a single daemon;
* jittered ``submit_retry`` backoff: two clients hammering a 1-slot
  queue both finish.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from contextlib import contextmanager
from random import Random

import pytest

from repro.errors import ServiceError
from repro.service import jobs as job_registry
from repro.service.client import ServiceClient
from repro.service.front import TokenBucket
from repro.service.workers import WorkerPool, await_within
from repro.service.metrics import relabel_exposition
from repro.service.queue import FairPriorityQueue
from repro.service.ring import HashRing
from repro.snapshot.runcache import canonical_json
from tests.conftest import serve_daemon


@contextmanager
def cluster(tmp_path, backends=2, *extra_args):
    with serve_daemon(
        tmp_path,
        "--cluster", str(backends),
        "--jobs", "1",
        "--store-dir", str(tmp_path / "store"),
        *extra_args,
    ) as (proc, port):
        yield proc, port


def _client(port: int) -> ServiceClient:
    return ServiceClient("127.0.0.1", port, timeout=120.0)


def _noop_key(tag: str, sleep_ms: int = 0) -> str:
    payload = job_registry.normalize(
        "noop", {"tag": tag, "sleep_ms": sleep_ms}
    )
    return job_registry.coalesce_key("noop", payload)


def _tag_owned_by(owner: str, nodes: list[str], sleep_ms: int = 0) -> str:
    """A noop tag whose digest the given backend owns (ring is public)."""
    ring = HashRing(nodes)
    for i in range(1000):
        tag = f"pin-{i}"
        if ring.owner(_noop_key(tag, sleep_ms)) == owner:
            return tag
    raise AssertionError(f"no tag found for {owner}")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# -- integration: the fleet as a black box --------------------------------------


def test_cluster_serves_protocol_and_reports_topology(tmp_path):
    with cluster(tmp_path, 2) as (_proc, port):
        with _client(port) as client:
            assert client.ping()
            summary = client.status().value
            assert summary["cluster"] is True
            assert [b["name"] for b in summary["backends"]] == ["b0", "b1"]
            assert abs(sum(summary["ring"].values()) - 1.0) < 1e-3
            result = client.submit("noop", {"tag": "t", "sleep_ms": 1})
            assert result.ok and result.value["slept_ms"] == 1


def test_fleet_coalescing_same_digest_two_connections(tmp_path):
    """Two connections, one digest -> one execution, fleet-wide."""
    with cluster(tmp_path, 2) as (_proc, port):
        payload = {"tag": "shared", "sleep_ms": 800}
        results: dict[str, object] = {}

        def drive(name: str) -> None:
            with _client(port) as c:
                results[name] = c.submit("noop", payload)

        threads = [
            threading.Thread(target=drive, args=(n,)) for n in ("a", "b")
        ]
        started = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        elapsed = time.monotonic() - started
        a, b = results["a"], results["b"]
        assert a.ok and b.ok
        assert a.job_id == b.job_id  # both rode the same front job
        assert a.value == b.value
        # One 0.8 s sleep, not two back-to-back on the 1-worker backend.
        assert elapsed < 1.6
        with _client(port) as c:
            assert c.metric_value("repro_front_jobs_coalesced_total") == 1.0


def test_front_serves_repeats_from_shared_store(tmp_path):
    with cluster(tmp_path, 2) as (_proc, port):
        payload = {"workload": "crc", "scale": "tiny", "instances": 2}
        with _client(port) as client:
            first = client.submit("run", payload)
            assert first.ok
            started = time.monotonic()
            second = client.submit("run", payload)
            assert second.ok and second.value == first.value
            assert time.monotonic() - started < 0.5  # no re-simulation
            assert (
                client.metric_value(
                    'repro_front_store_ops_total{op="hits"}'
                )
                == 1.0
            )
        assert list((tmp_path / "store").glob("result-*.json"))


def test_sigkill_failover_requeues_exactly_once(tmp_path):
    """Kill the owning backend mid-job: the ring successor finishes it."""
    with cluster(tmp_path, 2) as (_proc, port):
        with _client(port) as client:
            backends = {
                b["name"]: b for b in client.status().value["backends"]
            }
            tag = _tag_owned_by("b0", sorted(backends), sleep_ms=3000)
            holder: dict[str, object] = {}

            def drive() -> None:
                with _client(port) as c:
                    holder["result"] = c.submit(
                        "noop", {"tag": tag, "sleep_ms": 3000}
                    )

            thread = threading.Thread(target=drive)
            thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                states = client.status().value["jobs_by_state"]
                if states.get("running"):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("job never started running")
            time.sleep(0.2)  # let it reach the backend's worker
            summary = client.status().value["backends"]
            worker_pids = [
                int(worker["pid"])
                for b in summary
                if b["name"] == "b0" and isinstance(b.get("summary"), dict)
                for worker in b["summary"].get("workers", [])
                if worker.get("pid")
            ]
            os.kill(int(backends["b0"]["pid"]), signal.SIGKILL)
            thread.join(timeout=60)
            result = holder["result"]
            assert result.ok, result.error
            assert result.value["slept_ms"] == 3000
            # Routed to b0, requeued on its successor exactly once.
            assert result.attempts == 2
            assert client.metric_value("repro_front_failovers_total") == 1.0
            # The fleet keeps serving with the survivor.
            again = client.submit("noop", {"tag": "after", "sleep_ms": 1})
            assert again.ok
            # b0's forked workers must not outlive it: the parent-death
            # watchdog (workers.py) reaps them even though SIGKILL gave
            # the daemon no chance to shut its pool down.
            assert worker_pids, "health probe never reported b0's workers"
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if not any(_pid_alive(pid) for pid in worker_pids):
                    break
                time.sleep(0.1)
            else:
                pytest.fail(f"orphaned worker(s) survived: {worker_pids}")


QUOTA = ("--quota-rate", "0.5", "--quota-burst", "2")


def _assert_quota_enforced(port: int) -> None:
    with _client(port) as client:
        for i in range(2):
            assert client.submit("noop", {"tag": f"q{i}"}).ok
        with pytest.raises(ServiceError) as excinfo:
            client.submit("noop", {"tag": "q-over"})
        assert excinfo.value.code == "quota"
        assert excinfo.value.retry_after > 0


def test_quota_rejects_with_retry_after(tmp_path):
    with cluster(tmp_path, 1, *QUOTA) as (_proc, port):
        _assert_quota_enforced(port)


def test_daemon_quota_rejects_with_retry_after(tmp_path):
    """The single daemon shares the front's admission, quota included."""
    with serve_daemon(tmp_path, "--jobs", "1", *QUOTA) as (_proc, port):
        _assert_quota_enforced(port)


def test_digest_parity_single_node_vs_cluster(tmp_path):
    """run/wcet/lint results are byte-identical on both serving paths."""
    payloads = [
        ("run", {"workload": "crc", "scale": "tiny", "instances": 2}),
        ("wcet", {"workload": "cnt", "scale": "tiny"}),
        ("lint", {"workload": "fir", "scale": "tiny"}),
    ]
    single: dict[str, bytes] = {}
    with serve_daemon(tmp_path / "single", "--jobs", "1") as (_proc, port):
        with _client(port) as client:
            for kind, payload in payloads:
                single[kind] = canonical_json(
                    client.submit(kind, payload).value
                )
    with cluster(tmp_path / "fleet", 2) as (_proc, port):
        with _client(port) as client:
            for kind, payload in payloads:
                clustered = canonical_json(client.submit(kind, payload).value)
                assert clustered == single[kind], kind


def test_jittered_retry_two_clients_one_slot_queue(tmp_path):
    """Satellite: two clients vs a 1-slot queue; jittered backoff means
    both eventually get every job through the queue_full storm."""
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


# -- units: the front's moving parts --------------------------------------------


def test_retry_sleep_is_jittered_around_the_hint():
    a = ServiceClient(jitter=Random(1))
    b = ServiceClient(jitter=Random(2))
    sleeps_a = [a._retry_sleep_seconds(2.0) for _ in range(50)]
    sleeps_b = [b._retry_sleep_seconds(2.0) for _ in range(50)]
    assert all(1.0 <= s < 3.0 for s in sleeps_a + sleeps_b)
    assert sleeps_a != sleeps_b  # different seeds decorrelate the herd
    assert len(set(sleeps_a)) > 1
    assert 0.125 <= a._retry_sleep_seconds(None) < 0.375  # default base


def test_token_bucket_allows_burst_then_refills():
    bucket = TokenBucket(rate=50.0, burst=2)
    assert bucket.allow("alice")
    assert bucket.allow("alice")
    assert not bucket.allow("alice")  # burst exhausted
    assert bucket.allow("bob")  # buckets are per client
    assert bucket.retry_after("alice") > 0
    time.sleep(0.05)  # 50 tokens/s -> refilled well past 1 token
    assert bucket.allow("alice")


def test_token_bucket_zero_rate_is_unlimited():
    bucket = TokenBucket(rate=0.0, burst=1)
    assert all(bucket.allow("c") for _ in range(100))
    assert bucket.retry_after("c") == 0.0


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


def test_relabel_exposition_injects_backend_label():
    text = (
        "# HELP repro_x total\n"
        "# TYPE repro_x counter\n"
        "repro_x 3\n"
        'repro_y{kind="run"} 1.5\n'
    )
    out = relabel_exposition(text, backend="b1")
    assert 'repro_x{backend="b1"} 3' in out
    assert 'repro_y{kind="run",backend="b1"} 1.5' in out
    assert "# HELP" not in out
    assert relabel_exposition(text) == text  # no labels -> untouched


def test_priority_aging_promotes_starved_entries():
    """A steady stream of *fresh* high-priority work cannot park an old
    low-priority entry forever: it ages up into the stream's level and
    round robin across clients reaches it there."""
    clock = [0.0]
    queue: FairPriorityQueue[str] = FairPriorityQueue(
        8, age_seconds=10.0, clock=lambda: clock[0]
    )
    queue.push("old-low", client="a", priority=0)
    clock[0] = 11.0  # old-low out-waits age_seconds; the stream is fresh
    queue.push("hi-0", client="b", priority=1)
    queue.push("hi-1", client="b", priority=1)
    assert queue.pop() == "hi-0"
    assert queue.consume_aged() == 1  # old-low promoted to level 1
    assert queue.pop() == "old-low"  # round robin at the promoted level
    assert queue.pop() == "hi-1"
    assert queue.pop() is None


def test_priority_aging_respects_boost_limit():
    clock = [0.0]
    queue: FairPriorityQueue[str] = FairPriorityQueue(
        8, age_seconds=1.0, age_boost_limit=2, clock=lambda: clock[0]
    )
    queue.push("stuck", client="a", priority=0)
    queue.push("top", client="b", priority=10)
    clock[0] = 100.0  # far past every boost threshold
    assert queue.pop() == "top"  # 10 > 0+2: the cap holds
    assert queue.consume_aged() == 2
    assert queue.pop() == "stuck"


def test_noop_normalization_and_digest():
    normalized = job_registry.normalize("noop", {"tag": "x"})
    assert normalized == {"tag": "x", "sleep_ms": 0, "echo": {}}
    assert job_registry.coalesce_key(
        "noop", normalized
    ) == job_registry.coalesce_key(
        "noop", job_registry.normalize("noop", {"tag": "x", "sleep_ms": 0})
    )
    assert job_registry.execute("noop", normalized) == {
        "tag": "x",
        "slept_ms": 0,
        "echo": {},
    }
    with pytest.raises(Exception):
        job_registry.normalize("noop", {"tag": 7})

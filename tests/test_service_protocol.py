"""Unit tests for the service building blocks (no daemon, no sockets).

Covers the wire protocol (round-trips, version gating, validation), the
fair priority queue (ordering, fairness, backpressure, priority aging),
the metrics registry (exposition format, histogram buckets), the
daemon's bounded job history and per-client token buckets, the client's
jittered retry sleep, and the job registry (normalization determinism,
coalesce-key properties).
"""

from __future__ import annotations

import json
import time
from random import Random

import pytest

from repro.errors import ProtocolError
from repro.service import jobs as job_registry
from repro.service.client import ServiceClient
from repro.service.metrics import Registry, ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    JobSpec,
    Request,
    Response,
    decode_request,
    decode_response,
    encode,
)
from repro.service.queue import FairPriorityQueue, QueueFullError
from repro.service.server import (
    JobRecord,
    ReproService,
    ServiceConfig,
    TokenBucket,
)


# -- protocol --------------------------------------------------------------------


def test_request_round_trip():
    spec = JobSpec(kind="run", payload={"workload": "lms"}, priority=3)
    request = Request(type="submit", id="r1", job=spec, wait=False)
    decoded = decode_request(encode(request))
    assert decoded == request


def test_response_round_trip():
    response = Response(
        type="result", id="r2", job_id="j000001", ok=True,
        value={"savings": 0.5}, attempts=1,
    )
    assert decode_response(encode(response)) == response


def test_decode_rejects_wrong_version():
    line = (
        '{"v": %d, "type": "ping", "id": "x"}' % (PROTOCOL_VERSION + 1)
    )
    with pytest.raises(ProtocolError, match="protocol version"):
        decode_request(line)


def test_decode_rejects_unknown_types_and_bad_shapes():
    with pytest.raises(ProtocolError, match="invalid JSON"):
        decode_request(b"not json\n")
    with pytest.raises(ProtocolError, match="request type"):
        decode_request('{"v": 1, "type": "nope", "id": "x"}')
    with pytest.raises(ProtocolError, match="request id"):
        decode_request('{"v": 1, "type": "ping", "id": ""}')
    with pytest.raises(ProtocolError, match="requires a job"):
        decode_request('{"v": 1, "type": "submit", "id": "x"}')
    with pytest.raises(ProtocolError, match="job kind"):
        decode_request(
            '{"v": 1, "type": "submit", "id": "x", "job": {"kind": "zap"}}'
        )


# -- queue -----------------------------------------------------------------------


def test_queue_priority_beats_fifo():
    queue: FairPriorityQueue[str] = FairPriorityQueue(8)
    queue.push("low", client="a", priority=0)
    queue.push("high", client="a", priority=5)
    assert queue.pop() == "high"
    assert queue.pop() == "low"
    assert queue.pop() is None


def test_queue_round_robin_across_clients():
    queue: FairPriorityQueue[str] = FairPriorityQueue(16)
    for i in range(3):
        queue.push(f"a{i}", client="a")
    for i in range(2):
        queue.push(f"b{i}", client="b")
    order = [queue.pop() for _ in range(5)]
    # Client a submitted first but cannot starve b: strict alternation
    # while both have work, FIFO within each client.
    assert order == ["a0", "b0", "a1", "b1", "a2"]


def test_queue_fairness_within_one_priority_level_only():
    queue: FairPriorityQueue[str] = FairPriorityQueue(16)
    queue.push("a-low", client="a", priority=0)
    queue.push("b-high", client="b", priority=1)
    queue.push("a-high", client="a", priority=1)
    assert [queue.pop() for _ in range(3)] == ["b-high", "a-high", "a-low"]


def test_queue_backpressure_and_force():
    queue: FairPriorityQueue[str] = FairPriorityQueue(2)
    queue.push("one", client="a")
    queue.push("two", client="b")
    with pytest.raises(QueueFullError) as excinfo:
        queue.push("three", client="c")
    assert excinfo.value.depth == 2
    # Crash requeues bypass the bound: the job already held a slot once.
    queue.push("requeued", client="a", force=True)
    assert len(queue) == 3
    assert queue.clients() == ["a", "b"]


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


# -- metrics ---------------------------------------------------------------------


def test_registry_counter_gauge_exposition():
    registry = Registry()
    counter = registry.counter("jobs_total", "Jobs.")
    gauge = registry.gauge("depth", "Depth.")
    counter.inc(kind="run")
    counter.inc(2, kind="wcet")
    gauge.set(7)
    text = registry.render_text()
    assert 'jobs_total{kind="run"} 1' in text
    assert 'jobs_total{kind="wcet"} 2' in text
    assert "# TYPE jobs_total counter" in text
    assert "depth 7" in text
    assert counter.total() == 3


def test_histogram_cumulative_buckets():
    registry = Registry()
    histogram = registry.histogram(
        "latency", "Latency.", buckets=(0.1, 1.0)
    )
    for value in (0.05, 0.5, 0.7, 5.0):
        histogram.observe(value, kind="run")
    text = registry.render_text()
    assert 'latency_bucket{kind="run",le="0.1"} 1' in text
    assert 'latency_bucket{kind="run",le="1"} 3' in text
    assert 'latency_bucket{kind="run",le="+Inf"} 4' in text
    assert 'latency_count{kind="run"} 4' in text
    assert histogram.count(kind="run") == 4
    assert histogram.sum(kind="run") == pytest.approx(6.25)


def test_duplicate_collector_name_rejected():
    registry = Registry()
    registry.counter("x", "X.")
    with pytest.raises(ValueError):
        registry.gauge("x", "X.")


def test_service_metrics_cache_ratio():
    metrics = ServiceMetrics()
    metrics.fold_cache_delta({"run_hits": 3, "run_misses": 1, "run_stores": 1})
    hits = metrics.cache_ops.value(kind="run", op="hits")
    misses = metrics.cache_ops.value(kind="run", op="misses")
    assert hits / (hits + misses) == pytest.approx(0.75)
    snapshot = metrics.snapshot()
    assert snapshot["run_cache_hits"] == 3
    assert snapshot["run_cache_stores"] == 1


# -- job history -----------------------------------------------------------------


def test_history_trim_keeps_newest_finished_and_every_live_job(monkeypatch):
    """Past ``history_limit`` records the daemon drops the oldest
    finished jobs only, and a submit to a full table reads the records
    oldest first just until it has found the ones to drop, not the whole
    table.  The daemon is never started, so its queue holds every job
    (the depth bound is above the count) and the test finishes them."""
    limit = 64
    service = ReproService(
        ServiceConfig(history_limit=limit, queue_depth=2 * limit)
    )

    def submit(tag: str) -> JobRecord:
        spec = JobSpec(kind="noop", payload={"tag": tag})
        record, coalesced = service._submit(
            Request(type="submit", id=tag, job=spec), "c1", "h1"
        )
        assert not coalesced
        return record

    live = [submit(f"live{i}") for i in range(3)]
    finished = []
    for i in range(limit + 10):
        finished.append(submit(f"done{i}"))
        service._finish(finished[-1], result={})
    kept = live + finished[-(limit - len(live)):]
    assert list(service._jobs) == [record.job_id for record in kept]

    reads = []
    live_of = JobRecord.live.fget
    monkeypatch.setattr(
        JobRecord, "live",
        property(lambda record: reads.append(record) or live_of(record)),
    )
    submit("one-more")
    # One finished record to drop, found behind the three live ones.
    assert reads == [*live, finished[-(limit - len(live))]]


# -- quotas and retries ----------------------------------------------------------


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


def test_token_bucket_drops_refilled_buckets():
    """A bucket back at ``burst`` decides like a fresh one, so it is
    dropped: the table only holds hosts that are still refilling."""
    bucket = TokenBucket(rate=50.0, burst=1)
    assert bucket.allow("alice")
    assert not bucket.allow("alice")
    assert set(bucket._buckets) == {"alice"}
    time.sleep(0.05)  # 50 tokens/s: alice is full again
    assert bucket.allow("bob")
    assert set(bucket._buckets) == {"bob"}
    assert bucket.allow("alice")  # a fresh bucket, burst intact


def test_token_bucket_zero_rate_is_unlimited():
    bucket = TokenBucket(rate=0.0, burst=1)
    assert all(bucket.allow("c") for _ in range(100))
    assert bucket.retry_after("c") == 0.0


# -- job registry ----------------------------------------------------------------


def test_normalize_fills_defaults_deterministically():
    sparse = job_registry.normalize("run", {"workload": "lms"})
    explicit = job_registry.normalize(
        "run",
        {
            "workload": "lms", "scale": "tiny", "deadline": "tight",
            "instances": 12, "flush_rate": 0.0, "no_cache": False,
        },
    )
    assert sparse == explicit
    key = job_registry.coalesce_key("run", sparse)
    assert key == job_registry.coalesce_key("run", explicit)
    assert len(key) == 24


def test_coalesce_key_separates_kinds_and_payloads():
    run_a = job_registry.normalize("run", {"workload": "lms"})
    run_b = job_registry.normalize(
        "run", {"workload": "lms", "instances": 13}
    )
    lint = job_registry.normalize("lint", {"workload": "lms"})
    keys = {
        job_registry.coalesce_key("run", run_a),
        job_registry.coalesce_key("run", run_b),
        job_registry.coalesce_key("lint", lint),
    }
    assert len(keys) == 3


def test_normalize_rejects_bad_payloads():
    with pytest.raises(ProtocolError, match="unknown workload"):
        job_registry.normalize("run", {"workload": "nope"})
    with pytest.raises(ProtocolError, match="unknown payload fields"):
        job_registry.normalize("run", {"workload": "lms", "bogus": 1})
    # Retired knobs are unknown fields, not silently ignored.
    for field, value in (
        ("ooo_sched", "event"), ("no_jit", True), ("jit_tier", "block"),
    ):
        with pytest.raises(ProtocolError, match="unknown payload fields"):
            job_registry.normalize("run", {"workload": "lms", field: value})
        with pytest.raises(ProtocolError, match="unknown payload fields"):
            job_registry.normalize(
                "experiment", {"name": "table3", field: value}
            )
    with pytest.raises(ProtocolError, match="flush_rate"):
        job_registry.normalize(
            "run", {"workload": "lms", "flush_rate": 1.5}
        )
    with pytest.raises(ProtocolError, match="deadline"):
        job_registry.normalize("run", {"workload": "lms", "deadline": -1})
    with pytest.raises(ProtocolError, match="experiment name"):
        job_registry.normalize("experiment", {"name": "figure9"})
    with pytest.raises(ProtocolError, match="unknown checks"):
        job_registry.normalize(
            "lint", {"workload": "lms", "disable": ["no-such-check"]}
        )
    with pytest.raises(ProtocolError, match="unknown job kind"):
        job_registry.normalize("zap", {})


TASK = {"workload": "cnt", "period": 0.01}


@pytest.mark.parametrize("kind, field, payload", [
    ("run", "deadline", {"workload": "cnt", "deadline": True}),
    ("run", "flush_rate", {"workload": "cnt", "flush_rate": True}),
    ("wcet", "freq_mhz", {"workload": "cnt", "freq_mhz": True}),
    ("admit", "period", {"tasks": [{**TASK, "period": True}]}),
    ("admit", "deadline", {"tasks": [{**TASK, "deadline": True}]}),
    ("admit", "alpha", {"tasks": [TASK], "alpha": True}),
])
def test_normalize_rejects_bool_numbers(kind, field, payload):
    with pytest.raises(ProtocolError, match=f"{field} must be a number"):
        job_registry.normalize(kind, payload)


@pytest.mark.parametrize(
    "text", ["Infinity", "-Infinity", "NaN", "1" * 400],
    ids=["inf", "-inf", "nan", "huge-int"],
)
@pytest.mark.parametrize("kind, field, payload", [
    ("run", "deadline", '{"workload": "cnt", "deadline": %s}'),
    ("run", "flush_rate", '{"workload": "cnt", "flush_rate": %s}'),
    ("wcet", "freq_mhz", '{"workload": "cnt", "freq_mhz": %s}'),
    ("admit", "period", '{"tasks": [{"workload": "cnt", "period": %s}]}'),
    ("admit", "deadline",
     '{"tasks": [{"workload": "cnt", "period": 0.01, "deadline": %s}]}'),
    ("admit", "alpha",
     '{"tasks": [{"workload": "cnt", "period": 0.01}], "alpha": %s}'),
], ids=lambda value: value if value.isidentifier() else "")
def test_normalize_rejects_non_finite_numbers(kind, field, payload, text):
    """The service decodes with ``json.loads``, which accepts these."""
    with pytest.raises(ProtocolError, match=f"{field} must be finite"):
        job_registry.normalize(kind, json.loads(payload % text))


@pytest.mark.parametrize("kind, payload, key", [
    ("run", {"workload": "cnt", "deadline": 2, "flush_rate": 1},
     "bfb6ab805870c3c371c79386"),
    ("run", {"workload": "cnt", "deadline": 0.5, "flush_rate": 0},
     "4d36d9f3365b7133f0c42745"),
    ("wcet", {"workload": "cnt", "freq_mhz": 500}, "c1192ff1ada89c4e146733d7"),
    ("admit", {"tasks": [{**TASK, "period": 1, "deadline": 0.5}], "alpha": 4},
     "d4ca16a7b51d3c1aaf2e6fd2"),
])
def test_numeric_fields_keep_their_keys(kind, payload, key):
    """Ints normalize to floats; the keys were recorded before the
    numeric fields shared one check."""
    normalized = job_registry.normalize(kind, payload)
    assert job_registry.coalesce_key(kind, normalized) == key


def test_lint_source_job_executes_inline():
    """Worker-side execution works in-process too (source payload)."""
    payload = job_registry.normalize(
        "lint", {"source": "void main() { int x; x = 1; }"}
    )
    result = job_registry.execute("lint", payload)
    assert result["clean"] is True
    assert result["diagnostics"] == []


def test_wcet_workload_job_executes_inline():
    payload = job_registry.normalize(
        "wcet", {"workload": "cnt", "freq_mhz": 500}
    )
    result = job_registry.execute("wcet", payload)
    assert result["total_cycles"] > 0
    assert result["subtasks"]
    assert result["total_us"] > 0


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

"""Unit tests for the service building blocks (no daemon, no sockets).

Covers the wire protocol (round-trips, version gating, validation), the
fair priority queue (ordering, fairness, backpressure), the metrics
registry (exposition format, histogram buckets), the job front's bounded
history, and the job registry (normalization determinism, coalesce-key
properties).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ProtocolError
from repro.service import jobs as job_registry
from repro.service.front import FrontConfig, JobFront, JobRecord
from repro.service.metrics import JobMetrics, Registry, ServiceMetrics
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
    metrics.fold_cache_delta({"hits": 3, "misses": 1, "stores": 1})
    assert metrics.cache_hit_ratio.value() == pytest.approx(0.75)
    snapshot = metrics.snapshot()
    assert snapshot["run_cache_hits"] == 3
    assert snapshot["run_cache_stores"] == 1


# -- job history -----------------------------------------------------------------


class _HoldingExecutor:
    """Accepts every job and never runs it (the test finishes them)."""

    def submit(self, record: JobRecord) -> None:
        pass


def test_history_trim_keeps_newest_finished_and_every_live_job(monkeypatch):
    """Past ``history_limit`` records the front drops the oldest finished
    jobs only, and a submit to a full table reads the records oldest
    first just until it has found the ones to drop, not the whole
    table."""
    limit = 64
    front = JobFront(
        FrontConfig(history_limit=limit), _HoldingExecutor(),
        JobMetrics("test_"), None, id_prefix="t", client_prefix="c",
    )

    def submit(tag: str) -> JobRecord:
        spec = JobSpec(kind="noop", payload={"tag": tag})
        record, coalesced = front._submit(
            Request(type="submit", id=tag, job=spec), "c1"
        )
        assert not coalesced
        return record

    live = [submit(f"live{i}") for i in range(3)]
    finished = []
    for i in range(limit + 10):
        finished.append(submit(f"done{i}"))
        front._finish(finished[-1], result={})
    kept = live + finished[-(limit - len(live)):]
    assert list(front._jobs) == [record.job_id for record in kept]

    reads = []
    live_of = JobRecord.live.fget
    monkeypatch.setattr(
        JobRecord, "live",
        property(lambda record: reads.append(record) or live_of(record)),
    )
    submit("one-more")
    # One finished record to drop, found behind the three live ones.
    assert reads == [*live, finished[-(limit - len(live))]]


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

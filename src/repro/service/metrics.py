"""Live metrics: a tiny Prometheus-style registry (no dependencies).

Counters, gauges, and histograms with optional label sets, rendered in
the ``/metrics`` text exposition format and also available as a JSON
snapshot (the ``status`` request embeds it).  The registry itself is
plain in-process state: the service mutates it from its single event
loop, worker processes report run-cache counter *deltas* with each
result, and the server folds those into one ``repro_cache_ops_total``
family, split by kind and op exactly as
:func:`repro.snapshot.runcache.kind_stats` splits them for ``repro cache
stats``, so the two agree by construction.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TypeVar

from repro.snapshot import runcache

#: Default histogram buckets (seconds) for job latency: spans the
#: sub-millisecond cache-hit path through multi-second cold experiments.
LATENCY_BUCKETS = (
    0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0
)

Labels = tuple[tuple[str, str], ...]

_C = TypeVar("_C", bound="Counter | Gauge | Histogram")


def _labels_suffix(labels: Labels) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + body + "}"


def _freeze(labels: dict[str, str] | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


@dataclass
class _Scalar:
    """One value per label set; ``TYPE`` names the exposition type."""

    name: str
    help: str
    _values: dict[Labels, float] = field(default_factory=dict)
    TYPE = "untyped"

    def value(self, **labels: str) -> float:
        return self._values.get(_freeze(labels), 0.0)

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.TYPE}",
        ]
        for labels in sorted(self._values):
            lines.append(
                f"{self.name}{_labels_suffix(labels)} "
                f"{_format(self._values[labels])}"
            )
        if not self._values:
            lines.append(f"{self.name} 0")
        return lines


@dataclass
class Counter(_Scalar):
    """Monotonic counter, optionally split by a label set."""

    TYPE = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _freeze(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._values.values())


@dataclass
class Gauge(_Scalar):
    """Point-in-time value, optionally split by a label set."""

    TYPE = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._values[_freeze(labels)] = float(value)


@dataclass
class _HistogramSeries:
    counts: list[int]
    total: float = 0.0
    observations: int = 0


@dataclass
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics, ``+Inf`` last)."""

    name: str
    help: str
    buckets: tuple[float, ...] = LATENCY_BUCKETS
    _series: dict[Labels, _HistogramSeries] = field(default_factory=dict)

    def observe(self, value: float, **labels: str) -> None:
        key = _freeze(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(
                counts=[0] * (len(self.buckets) + 1)
            )
        series.counts[bisect.bisect_left(self.buckets, value)] += 1
        series.total += value
        series.observations += 1

    def count(self, **labels: str) -> int:
        series = self._series.get(_freeze(labels))
        return 0 if series is None else series.observations

    def sum(self, **labels: str) -> float:
        series = self._series.get(_freeze(labels))
        return 0.0 if series is None else series.total

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} histogram",
        ]
        for labels in sorted(self._series):
            series = self._series[labels]
            cumulative = 0
            for bound, count in zip(self.buckets, series.counts):
                cumulative += count
                le = dict(labels)
                le["le"] = _format(bound)
                lines.append(
                    f"{self.name}_bucket{_labels_suffix(_freeze(le))} "
                    f"{cumulative}"
                )
            le = dict(labels)
            le["le"] = "+Inf"
            lines.append(
                f"{self.name}_bucket{_labels_suffix(_freeze(le))} "
                f"{series.observations}"
            )
            lines.append(
                f"{self.name}_sum{_labels_suffix(labels)} "
                f"{_format(series.total)}"
            )
            lines.append(
                f"{self.name}_count{_labels_suffix(labels)} "
                f"{series.observations}"
            )
        return lines


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Registry:
    """Named collectors plus the text exposition over all of them."""

    def __init__(self) -> None:
        self._collectors: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str, help: str) -> Counter:
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str) -> Gauge:
        return self._register(Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def _register(self, collector: _C) -> _C:
        if collector.name in self._collectors:
            raise ValueError(f"collector {collector.name!r} already registered")
        self._collectors[collector.name] = collector
        return collector

    def render_text(self) -> str:
        """The full ``/metrics`` exposition (one collector per block)."""
        lines: list[str] = []
        for name in sorted(self._collectors):
            lines.extend(self._collectors[name].render())
        return "\n".join(lines) + "\n"


class ServiceMetrics:
    """The daemon's collectors, pre-registered."""

    def __init__(self) -> None:
        self.registry = Registry()
        reg = self.registry
        self.jobs_submitted = reg.counter(
            "repro_jobs_submitted_total", "Jobs admitted, by kind."
        )
        self.jobs_completed = reg.counter(
            "repro_jobs_completed_total",
            "Jobs finished, by kind and outcome "
            "(ok/store/job_error/timeout/worker_crash/draining/...).",
        )
        self.jobs_coalesced = reg.counter(
            "repro_jobs_coalesced_total",
            "Submissions served by attaching to an identical in-flight job.",
        )
        self.jobs_rejected = reg.counter(
            "repro_jobs_rejected_total",
            "Submissions rejected, by reason "
            "(queue_full/quota/draining/bad_request).",
        )
        self.store_ops = reg.counter(
            "repro_store_ops_total",
            "Shared result-store hits/misses/stores for this daemon.",
        )
        self.store_hit_ratio = reg.gauge(
            "repro_store_hit_ratio",
            "Result-store hits / (hits + misses) since start.",
        )
        self.jobs_in_flight = reg.gauge(
            "repro_jobs_in_flight", "Jobs currently executing on a worker."
        )
        self.draining = reg.gauge(
            "repro_draining", "1 while the daemon is draining after SIGTERM."
        )
        self.job_seconds = reg.histogram(
            "repro_job_seconds",
            "Job latency by kind (seconds), submission to result, "
            "store hits included.",
        )
        self.worker_restarts = reg.counter(
            "repro_worker_restarts_total",
            "Worker processes restarted after a crash or job timeout.",
        )
        self.jobs_requeued = reg.counter(
            "repro_jobs_requeued_total",
            "Jobs requeued after their worker crashed mid-run.",
        )
        self.jobs_aged = reg.counter(
            "repro_jobs_aged_total",
            "Queue entries promoted one priority level by aging.",
        )
        self.queue_depth = reg.gauge(
            "repro_queue_depth", "Jobs currently waiting in the queue."
        )
        self.workers_alive = reg.gauge(
            "repro_workers_alive", "Worker processes currently alive."
        )
        self.job_phase_seconds = reg.histogram(
            "repro_job_phase_seconds",
            "Per-phase job latency by kind (seconds): phase=\"queue\" is "
            "submit-to-dispatch wait, phase=\"execute\" is worker wall time.",
        )
        self.cache_ops = reg.counter(
            "repro_cache_ops_total",
            "In-process cache counts aggregated across workers, by kind "
            "(run/setup/warmup/admit/blockjit/analyzer/...) and op "
            "(hits/misses/stores on disk, memo_hits/memo_misses in memory).",
        )
        self.cache_entries = reg.gauge(
            "repro_cache_entries", "Entries in the on-disk cache directory."
        )
        self.cache_bytes = reg.gauge(
            "repro_cache_bytes", "Total bytes in the on-disk cache directory."
        )
        self.codegen_entries = reg.gauge(
            "repro_codegen_entries",
            "Entries in the on-disk blockjit codegen cache.",
        )
        self.codegen_bytes = reg.gauge(
            "repro_codegen_bytes",
            "Total bytes in the on-disk blockjit codegen cache.",
        )

    def record_store_op(self, op: str) -> None:
        """Count one result-store operation and refresh the hit ratio."""
        self.store_ops.inc(op=op)
        hits = self.store_ops.value(op="hits")
        misses = self.store_ops.value(op="misses")
        if hits + misses > 0:
            self.store_hit_ratio.set(hits / (hits + misses))

    def fold_cache_delta(self, delta: dict[str, int]) -> None:
        """Fold one worker's ``runcache.STATS`` delta into the aggregate."""
        for kind, ops in runcache.kind_stats(delta).items():
            for op, amount in ops.items():
                if amount:
                    self.cache_ops.inc(amount, kind=kind, op=op)

    def refresh_disk_gauges(self) -> None:
        """Update the on-disk cache gauges from the shared collector."""
        stats = runcache.cache_stats()
        self.cache_entries.set(stats["entries"])
        self.cache_bytes.set(stats["bytes"])
        self.codegen_entries.set(stats["blockjit"]["entries"])
        self.codegen_bytes.set(stats["blockjit"]["bytes"])

    def render_text(self) -> str:
        self.refresh_disk_gauges()
        return self.registry.render_text()

    def snapshot(self) -> dict[str, float]:
        """Scalar summary embedded in ``status`` responses."""
        return {
            "submitted": self.jobs_submitted.total(),
            "completed": self.jobs_completed.total(),
            "coalesced": self.jobs_coalesced.total(),
            "rejected": self.jobs_rejected.total(),
            "jobs_in_flight": self.jobs_in_flight.value(),
            "store_hits": self.store_ops.value(op="hits"),
            "store_misses": self.store_ops.value(op="misses"),
            "requeued": self.jobs_requeued.total(),
            "worker_restarts": self.worker_restarts.total(),
            "queue_depth": self.queue_depth.value(),
            "run_cache_hits": self.cache_ops.value(kind="run", op="hits"),
            "run_cache_misses": self.cache_ops.value(kind="run", op="misses"),
            "run_cache_stores": self.cache_ops.value(kind="run", op="stores"),
        }


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "Registry",
    "ServiceMetrics",
]

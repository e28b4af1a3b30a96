"""Metrics plumbing tests: collectors, exposition, family names.

These pin the Prometheus-compatibility details the observability layer
depends on: ``le`` buckets are *inclusive* upper bounds, rendered counts
are cumulative with ``+Inf`` equal to the observation count, and the
daemon exports exactly the metric families that ``repro top`` and
perfbench's ``serve-mixed`` workload read by name.
"""

from __future__ import annotations

import pytest

from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    ServiceMetrics,
)
from repro.service.top import parse_exposition


class TestHistogramBuckets:
    def test_value_on_boundary_is_inclusive(self):
        # Prometheus le="0.1" means value <= 0.1: an observation exactly
        # on the bound belongs to that bucket, not the next one.
        hist = Histogram("h", "help", buckets=(0.1, 1.0))
        hist.observe(0.1)
        samples = parse_exposition("\n".join(hist.render()))
        assert samples[("h_bucket", (("le", "0.1"),))] == 1
        assert samples[("h_bucket", (("le", "1"),))] == 1
        assert samples[("h_bucket", (("le", "+Inf"),))] == 1

    def test_counts_are_cumulative(self):
        hist = Histogram("h", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        samples = parse_exposition("\n".join(hist.render()))
        assert samples[("h_bucket", (("le", "0.1"),))] == 1
        assert samples[("h_bucket", (("le", "1"),))] == 3
        assert samples[("h_bucket", (("le", "+Inf"),))] == 4
        assert samples[("h_count", ())] == 4
        assert samples[("h_sum", ())] == pytest.approx(6.05)

    def test_labeled_series_are_independent(self):
        hist = Histogram("h", "help", buckets=(1.0,))
        hist.observe(0.5, kind="run", phase="queue")
        hist.observe(0.5, kind="run", phase="execute")
        assert hist.count(kind="run", phase="queue") == 1
        assert hist.count(kind="run", phase="execute") == 1
        assert hist.count(kind="wcet", phase="queue") == 0


#: Every family ``ServiceMetrics`` registers.  ``repro top`` and
#: ``perfbench/serve_mixed.py`` scrape several of these by name, so a
#: rename is a breaking change to both, not a refactor.
FAMILIES = {
    "repro_blockjit_cache_ops_total", "repro_cache_bytes",
    "repro_cache_entries", "repro_codegen_bytes", "repro_codegen_entries",
    "repro_draining", "repro_job_phase_seconds", "repro_job_seconds",
    "repro_jobs_aged_total", "repro_jobs_coalesced_total",
    "repro_jobs_completed_total", "repro_jobs_in_flight",
    "repro_jobs_rejected_total", "repro_jobs_requeued_total",
    "repro_jobs_submitted_total", "repro_queue_depth",
    "repro_run_cache_hit_ratio", "repro_run_cache_ops_total",
    "repro_store_hit_ratio", "repro_store_ops_total",
    "repro_worker_restarts_total", "repro_workers_alive",
}


class TestServiceMetrics:
    def test_family_names_are_pinned(self):
        text = ServiceMetrics().registry.render_text()
        declared = {
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        }
        assert declared == FAMILIES

    def test_store_hit_ratio_tracks_ops(self):
        metrics = ServiceMetrics()
        metrics.record_store_op("misses")
        assert metrics.store_hit_ratio.value() == 0.0
        metrics.record_store_op("hits")
        metrics.record_store_op("hits")
        assert metrics.store_hit_ratio.value() == pytest.approx(2 / 3)
        snap = metrics.snapshot()
        assert snap["store_hits"] == 2
        assert snap["store_misses"] == 1

    def test_phase_histogram_renders_both_phases(self):
        metrics = ServiceMetrics()
        metrics.job_phase_seconds.observe(0.001, kind="admit", phase="queue")
        metrics.job_phase_seconds.observe(0.01, kind="admit", phase="execute")
        samples = parse_exposition(metrics.registry.render_text())
        assert samples[
            ("repro_job_phase_seconds_count",
             (("kind", "admit"), ("phase", "queue")))
        ] == 1
        assert samples[
            ("repro_job_phase_seconds_count",
             (("kind", "admit"), ("phase", "execute")))
        ] == 1

    def test_codegen_gauges_exist(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        metrics = ServiceMetrics()
        text = metrics.render_text()
        assert "repro_codegen_entries" in text
        assert "repro_codegen_bytes" in text
        assert "repro_store_hit_ratio" in text
        assert "repro_job_phase_seconds" in text


class TestRegistry:
    def test_duplicate_name_rejected(self):
        registry = Registry()
        registry.counter("x", "one")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x", "two")

    def test_counter_and_gauge_render_defaults(self):
        samples = parse_exposition(
            "\n".join(Counter("c", "h").render() + Gauge("g", "h").render())
        )
        assert samples[("c", ())] == 0
        assert samples[("g", ())] == 0

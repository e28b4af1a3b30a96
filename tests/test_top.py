"""``repro top`` rendering tests — pure functions, no server needed."""

from __future__ import annotations

import pytest

from repro.service.top import (
    histogram_deltas,
    parse_exposition,
    quantile_from_buckets,
    render_frame,
)


class TestParseExposition:
    def test_basic_samples(self):
        text = (
            "# HELP x help text\n"
            "# TYPE x counter\n"
            "x 3\n"
            'y{kind="run",phase="queue"} 0.5\n'
            "\n"
            "garbage line without a number trailing\n"
            "z nan-ish notanumber\n"
        )
        samples = parse_exposition(text)
        assert samples[("x", ())] == 3
        assert samples[("y", (("kind", "run"), ("phase", "queue")))] == 0.5
        assert len(samples) == 2  # malformed lines skipped, not fatal

    def test_labels_sorted_for_stable_keys(self):
        a = parse_exposition('m{b="2",a="1"} 1\n')
        b = parse_exposition('m{a="1",b="2"} 1\n')
        assert a == b


class TestHistogramDeltas:
    @staticmethod
    def _series(v0: int, v1: int, v2: int) -> str:
        return (
            f'h_bucket{{kind="run",le="0.1"}} {v0}\n'
            f'h_bucket{{kind="run",le="1"}} {v1}\n'
            f'h_bucket{{kind="run",le="+Inf"}} {v2}\n'
            'h_bucket{kind="wcet",le="0.1"} 99\n'
            'h_bucket{kind="wcet",le="1"} 99\n'
            'h_bucket{kind="wcet",le="+Inf"} 99\n'
        )

    def test_deltas_select_series_and_sort(self):
        prev = parse_exposition(self._series(1, 2, 3))
        cur = parse_exposition(self._series(2, 6, 8))
        buckets, total = histogram_deltas(prev, cur, "h", kind="run")
        assert buckets == [(0.1, 1.0), (1.0, 4.0), (float("inf"), 5.0)]
        assert total == 5.0

    def test_missing_prev_counts_from_zero(self):
        cur = parse_exposition(self._series(1, 2, 2))
        buckets, total = histogram_deltas({}, cur, "h", kind="run")
        assert total == 2.0
        assert buckets[0] == (0.1, 1.0)

    def test_backend_label_aggregation_ignores_extras(self):
        # A scrape may carry extra labels; a kind-only selector must
        # still match (label-subset semantics).
        cur = parse_exposition(
            'h_bucket{backend="b0",kind="run",le="+Inf"} 4\n'
        )
        buckets, total = histogram_deltas({}, cur, "h", kind="run")
        assert (buckets, total) == ([(float("inf"), 4.0)], 4.0)


class TestQuantiles:
    BUCKETS = [(0.1, 10.0), (1.0, 20.0), (float("inf"), 20.0)]

    def test_median_interpolates_inside_bucket(self):
        # rank 10 falls exactly on the 0.1 bucket's cumulative count.
        assert quantile_from_buckets(self.BUCKETS, 0.5) == pytest.approx(0.1)
        # rank 15 is halfway through the (0.1, 1.0] bucket.
        assert quantile_from_buckets(self.BUCKETS, 0.75) == pytest.approx(
            0.1 + 0.9 * 0.5
        )

    def test_inf_bucket_reports_lower_bound(self):
        buckets = [(0.1, 0.0), (1.0, 0.0), (float("inf"), 5.0)]
        assert quantile_from_buckets(buckets, 0.5) == pytest.approx(1.0)

    def test_empty_window_is_none(self):
        assert quantile_from_buckets([], 0.5) is None
        assert quantile_from_buckets([(1.0, 0.0)], 0.5) is None


class TestRenderFrame:
    def _samples(self, count: float):
        text = (
            f'repro_job_seconds_bucket{{kind="admit",le="0.005"}} {count}\n'
            f'repro_job_seconds_bucket{{kind="admit",le="+Inf"}} {count}\n'
            f'repro_job_seconds_count{{kind="admit"}} {count}\n'
        )
        return parse_exposition(text)

    def test_single_node_frame(self):
        status = {
            "uptime_seconds": 12.0,
            "queue_depth": 1,
            "metrics": {
                "jobs_in_flight": 2,
                "coalesced": 3,
                "rejected": 0,
                "store_hits": 3,
                "store_misses": 1,
                "run_cache_hits": 0,
                "run_cache_misses": 0,
            },
            "workers": [{"alive": True}, {"alive": False}],
        }
        frame = render_frame(status, self._samples(2), self._samples(6), 2.0)
        assert "repro service" in frame
        assert "store hit 75%" in frame
        assert "run-cache hit -" in frame
        assert "workers alive 1/2" in frame
        # 4 admits over a 2 s window.
        assert "admit" in frame
        assert "2.0" in frame

    def test_draining_flag_in_title(self):
        frame = render_frame(
            {"uptime_seconds": 5.0, "draining": True}, {}, {}, 1.0
        )
        assert frame.startswith("repro service · up 5s")
        assert "DRAINING" in frame.splitlines()[0]

    def test_single_node_frame_counts_daemon_quota_rejects(self):
        cur = parse_exposition(
            'repro_jobs_rejected_total{reason="quota"} 3\n'
            'repro_jobs_rejected_total{reason="draining"} 1\n'
        )
        frame = render_frame({}, {}, cur, 1.0)
        assert "quota rejects 3" in frame

    def test_zero_window_does_not_divide_by_zero(self):
        frame = render_frame({}, self._samples(0), self._samples(1), 0.0)
        assert "admit" in frame

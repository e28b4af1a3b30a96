"""``repro top``: a live terminal view of a serving node or cluster.

Polls the service's ``status`` and ``metrics`` requests over the normal
TCP protocol (no HTTP needed — though the numbers are the same ones
``GET /metrics`` serves) and renders a refreshing dashboard:

* queue depth, in-flight jobs, worker/backend health, drain state;
* per-kind throughput (jobs/s over the refresh window) and p50/p99
  latency, estimated from ``repro_job_seconds`` bucket *deltas* — the
  quantiles describe the interval you are watching, not all of history;
* store/run-cache hit ratios and quota/backpressure rejections.

Everything here except :func:`run_top` is a pure function from
exposition text to strings, so the rendering is unit-testable without a
server; ``repro top --once`` prints a single frame (CI smoke uses it).
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.service.client import ServiceClient

JSONDict = dict[str, Any]

#: (metric name, frozen label set) -> sample value.
Samples = dict[tuple[str, tuple[tuple[str, str], ...]], float]

_CLEAR = "\x1b[2J\x1b[H"


def parse_exposition(text: str) -> Samples:
    """Parse a Prometheus text exposition into ``{(name, labels): value}``.

    Handles the subset this repository emits: optional ``#`` comments,
    sample lines ``name{k="v",...} value`` with no escaping inside label
    values (the service never emits quotes or backslashes in labels).
    Malformed lines are skipped — the scraper must not die because one
    collector misrendered.
    """
    samples: Samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            continue
        try:
            value = float(value_part)
        except ValueError:
            continue
        labels: list[tuple[str, str]] = []
        name = name_part
        if name_part.endswith("}"):
            brace = name_part.find("{")
            if brace < 0:
                continue
            name = name_part[:brace]
            body = name_part[brace + 1 : -1]
            ok = True
            for item in filter(None, body.split(",")):
                key, eq, raw = item.partition("=")
                if eq != "=" or len(raw) < 2 or raw[0] != '"' or raw[-1] != '"':
                    ok = False
                    break
                labels.append((key, raw[1:-1]))
            if not ok:
                continue
        samples[(name, tuple(sorted(labels)))] = value
    return samples


def histogram_deltas(
    prev: Samples, cur: Samples, name: str, **fixed: str
) -> tuple[list[tuple[float, float]], float]:
    """Per-bucket count deltas for one histogram series, plus the count delta.

    Returns ``([(upper_bound, delta_count), ...], total_delta)`` with
    buckets sorted ascending and ``+Inf`` last; ``fixed`` labels (e.g.
    ``kind="run"``) select the series.
    """
    want = set(fixed.items())
    buckets: list[tuple[float, float]] = []
    for (metric, labels), value in cur.items():
        if metric != f"{name}_bucket":
            continue
        label_map = dict(labels)
        le = label_map.pop("le", None)
        if le is None or not want <= set(label_map.items()):
            continue
        bound = float("inf") if le == "+Inf" else float(le)
        delta = value - prev.get((metric, labels), 0.0)
        buckets.append((bound, delta))
    buckets.sort(key=lambda pair: pair[0])
    total = buckets[-1][1] if buckets else 0.0
    return buckets, total


def quantile_from_buckets(
    buckets: list[tuple[float, float]], q: float
) -> float | None:
    """Estimate a quantile from cumulative-bucket deltas (Prometheus math).

    Linear interpolation inside the target bucket; the ``+Inf`` bucket
    reports its lower bound (there is nothing to interpolate against).
    Returns None when the window saw no observations.
    """
    if not buckets:
        return None
    total = buckets[-1][1]
    if total <= 0:
        return None
    rank = q * total
    lower_bound = 0.0
    lower_count = 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound == float("inf"):
                return lower_bound
            span = cumulative - lower_count
            if span <= 0:
                return bound
            fraction = (rank - lower_count) / span
            return lower_bound + (bound - lower_bound) * fraction
        lower_bound = bound
        lower_count = cumulative
    return lower_bound


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _counter_total(samples: Samples, name: str, **fixed: str) -> float:
    want = set(fixed.items())
    return sum(
        value
        for (metric, labels), value in samples.items()
        if metric == name and want <= set(labels)
    )


def _kinds(samples: Samples, name: str) -> list[str]:
    kinds: set[str] = set()
    for (metric, labels), _ in samples.items():
        if metric == name:
            kind = dict(labels).get("kind")
            if kind:
                kinds.add(kind)
    return sorted(kinds)


def render_frame(
    status: Mapping[str, Any],
    prev: Samples,
    cur: Samples,
    window_seconds: float,
) -> str:
    """One dashboard frame from a status summary + two metric samples."""
    lines: list[str] = []
    cluster = bool(status.get("cluster"))
    draining = " DRAINING" if status.get("draining") else ""
    uptime = float(status.get("uptime_seconds", 0.0) or 0.0)
    title = "repro cluster" if cluster else "repro service"
    lines.append(
        f"{title} · up {uptime:.0f}s · window {window_seconds:.1f}s{draining}"
    )
    metrics = status.get("metrics")
    metrics = metrics if isinstance(metrics, Mapping) else {}
    if cluster:
        lines.append(
            f"in-flight {metrics.get('jobs_in_flight', 0):.0f} · "
            f"coalesced {metrics.get('coalesced', 0):.0f} · "
            f"rejected {metrics.get('rejected', 0):.0f} · "
            f"failovers {metrics.get('failovers', 0):.0f}"
        )
    else:
        lines.append(
            f"queue {status.get('queue_depth', 0)} · "
            f"in-flight {metrics.get('jobs_in_flight', 0):.0f} · "
            f"coalesced {metrics.get('coalesced', 0):.0f} · "
            f"rejected {metrics.get('rejected', 0):.0f}"
        )
    store_hits = float(metrics.get("store_hits", 0) or 0)
    store_misses = float(metrics.get("store_misses", 0) or 0)
    cache_hits = float(metrics.get("run_cache_hits", 0) or 0)
    cache_misses = float(metrics.get("run_cache_misses", 0) or 0)

    def ratio(hits: float, misses: float) -> str:
        total = hits + misses
        return f"{hits / total:.0%}" if total else "-"

    rejected = (
        "repro_front_jobs_rejected_total"
        if cluster
        else "repro_jobs_rejected_total"
    )
    lines.append(
        f"store hit {ratio(store_hits, store_misses)} · "
        f"run-cache hit {ratio(cache_hits, cache_misses)} · "
        f"quota rejects "
        f"{_counter_total(cur, rejected, reason='quota'):.0f}"
    )
    lines.append("")
    # Per-kind table over the sampling window.  The front tier and the
    # single node both export repro_job_seconds{kind=...}; in cluster
    # mode the relabeled backend series carry a backend label, which the
    # label-subset matching below happily aggregates over.
    lines.append(f"{'kind':<12}{'jobs/s':>8}{'p50':>10}{'p99':>10}{'total':>8}")
    window = max(window_seconds, 1e-9)
    for kind in _kinds(cur, "repro_job_seconds_count"):
        count_now = _counter_total(cur, "repro_job_seconds_count", kind=kind)
        count_prev = _counter_total(prev, "repro_job_seconds_count", kind=kind)
        buckets, _ = histogram_deltas(
            prev, cur, "repro_job_seconds", kind=kind
        )
        lines.append(
            f"{kind:<12}"
            f"{(count_now - count_prev) / window:>8.1f}"
            f"{_fmt_seconds(quantile_from_buckets(buckets, 0.5)):>10}"
            f"{_fmt_seconds(quantile_from_buckets(buckets, 0.99)):>10}"
            f"{count_now:>8.0f}"
        )
    backends = status.get("backends")
    if isinstance(backends, list) and backends:
        lines.append("")
        lines.append(f"{'backend':<10}{'up':>4}{'breaker':>9}{'queue':>7}")
        for entry in backends:
            if not isinstance(entry, Mapping):
                continue
            summary = entry.get("summary")
            depth = (
                summary.get("queue_depth", 0)
                if isinstance(summary, Mapping)
                else "-"
            )
            lines.append(
                f"{str(entry.get('name', '?')):<10}"
                f"{'y' if entry.get('up') else 'n':>4}"
                f"{'open' if entry.get('breaker_open') else '-':>9}"
                f"{depth!s:>7}"
            )
    else:
        workers = status.get("workers")
        if isinstance(workers, list):
            alive = sum(
                1
                for w in workers
                if isinstance(w, Mapping) and w.get("alive")
            )
            lines.append("")
            lines.append(f"workers alive {alive}/{len(workers)}")
    return "\n".join(lines) + "\n"


def run_top(
    host: str,
    port: int,
    interval: float = 2.0,
    once: bool = False,
) -> None:
    """Poll status + metrics and redraw until interrupted (or once)."""
    with ServiceClient(host, port) as client:
        prev = parse_exposition(client.metrics_text())
        prev_stamp = time.monotonic()
        if not once:
            time.sleep(max(0.2, interval))
        while True:
            status = client.status().value or {}
            cur = parse_exposition(client.metrics_text())
            now = time.monotonic()
            frame = render_frame(status, prev, cur, now - prev_stamp)
            if once:
                print(frame, end="")
                return
            print(_CLEAR + frame, end="", flush=True)
            prev, prev_stamp = cur, now
            time.sleep(max(0.2, interval))


__all__ = [
    "Samples",
    "histogram_deltas",
    "parse_exposition",
    "quantile_from_buckets",
    "render_frame",
    "run_top",
]

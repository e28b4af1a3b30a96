"""The one in-process memo and the one counter table of ``runcache``.

:func:`runcache.memo` shares computation per ``(kind, key)`` within each
kind's bound, counting ``<kind>_memo_hits``/``<kind>_memo_misses`` in
:data:`runcache.STATS` beside the disk kinds' ``<kind>_hits`` etc.
``repro cache stats`` and a daemon's ``repro_cache_ops_total`` read that
one table the same way.  Also here: a failed publish leaves no temp file.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.cli import main
from repro.experiments import common
from repro.rt import admission
from repro.service.metrics import ServiceMetrics
from repro.snapshot import runcache


@pytest.fixture
def fresh(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    runcache.clear_memory()
    runcache.reset_stats()
    yield tmp_path
    runcache.clear_memory()
    runcache.reset_stats()


def test_bounds_are_pinned():
    assert runcache.MEMO_BOUNDS == {
        "analyzer": 64, "setup": None, "warmup": None,
        "admit-program": 64, "admit-wcet": 1024,
    }
    assert set(runcache.MEMO_BOUNDS) <= set(runcache.KINDS)
    assert not any("_" in kind for kind in runcache.KINDS)


def test_memo_counts_and_evicts_least_recently_used(fresh, monkeypatch):
    monkeypatch.setitem(runcache.MEMO_BOUNDS, "admit-wcet", 2)
    built: list[str] = []

    def value(key: str) -> str:
        return runcache.memo("admit-wcet", key, lambda: built.append(key) or key)

    assert [value("a"), value("b"), value("a")] == ["a", "b", "a"]
    assert built == ["a", "b"]
    value("c")  # evicts b, the least recently used
    assert runcache.memo_keys("admit-wcet") == ["a", "c"]
    value("b")
    assert built == ["a", "b", "c", "b"]
    assert runcache.STATS["admit-wcet_memo_hits"] == 1
    assert runcache.STATS["admit-wcet_memo_misses"] == 4


def test_memo_stays_on_under_no_cache(fresh, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    first = common.setup("cnt", "tiny")
    assert common.setup("cnt", "tiny") is first
    assert runcache.STATS["setup_memo_hits"] == 1
    assert list(fresh.iterdir()) == []


def _stats_rows(capsys) -> dict[str, dict[str, int]]:
    assert main(["cache", "stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split()
    columns = header[1:]
    assert columns == [
        "entries", "bytes", "hits", "misses", "stores", "memo", "hits",
        "memo", "misses",
    ]
    ops = ["entries", "bytes", *runcache.OPS]
    return {
        cells[0]: dict(zip(ops, map(int, cells[1:])))
        for cells in (line.split() for line in lines[2:])
        if not cells[0].startswith("#")
    }


def test_cache_stats_and_metrics_show_every_kind(fresh, capsys):
    tasks = admission.normalize_payload(
        {"tasks": [{"workload": "cnt", "period": 0.01}]}
    )
    for _ in range(2):  # cold, then a fresh process's memory
        runcache.clear_memory()
        common.setup("cnt", "tiny")
        common.setup("cnt", "tiny")
        admission.cached_decide(tasks)
    rows = _stats_rows(capsys)
    assert list(rows) == list(runcache.KINDS)
    assert rows["setup"] == {
        "entries": 1, "bytes": rows["setup"]["bytes"], "hits": 1,
        "misses": 1, "stores": 1, "memo_hits": 2, "memo_misses": 2,
    }
    assert (rows["admit"]["hits"], rows["admit"]["stores"]) == (1, 1)
    assert rows["analyzer"]["memo_misses"] >= 1
    assert rows["admit-wcet"]["memo_misses"] >= 1

    # A daemon folds the same table into the same (kind, op) counts.
    metrics = ServiceMetrics()
    metrics.fold_cache_delta(dict(runcache.STATS))
    for kind, row in rows.items():
        for op in runcache.OPS:
            assert metrics.cache_ops.value(kind=kind, op=op) == row[op]


def test_failed_publish_leaves_no_temp_file(fresh, monkeypatch):
    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    for n in range(3):
        runcache.atomic_write(fresh / f"entry-{n}.json", b"x" * 2000)
    assert list(fresh.iterdir()) == []

"""Unit tests for the shared content-addressed result store."""

from __future__ import annotations

import json

from repro.service.jobs import CACHEABLE_KINDS
from repro.service.store import ResultStore, store_stats
from repro.snapshot.state import FORMAT_VERSION


def test_roundtrip_and_counters(tmp_path):
    store = ResultStore(tmp_path)
    assert store.get("run", "k1") is None  # cold miss
    store.put("run", "k1", {"cycles": 42})
    assert store.get("run", "k1") == {"cycles": 42}
    assert store.snapshot() == {"hits": 1, "misses": 1, "stores": 1}


def test_kind_mismatch_reads_as_miss(tmp_path):
    store = ResultStore(tmp_path)
    store.put("run", "k1", {"cycles": 42})
    assert store.get("wcet", "k1") is None


def test_corrupt_entry_reads_as_miss(tmp_path):
    store = ResultStore(tmp_path)
    store.put("run", "k1", {"cycles": 42})
    path = tmp_path / "run-k1.json"
    assert json.loads(path.read_text()) == {
        "format": FORMAT_VERSION, "kind": "run", "key": "k1",
        "value": {"cycles": 42},
    }
    path.write_text("{ not json")
    assert store.get("run", "k1") is None
    path.write_text(json.dumps(
        {"format": -1, "kind": "run", "key": "k1", "value": {}}
    ))
    assert store.get("run", "k1") is None  # stale format version
    path.write_text(json.dumps([1, 2, 3]))
    assert store.get("run", "k1") is None  # wrong shape entirely
    path.write_text(json.dumps(
        {"format": FORMAT_VERSION, "kind": "run", "key": "k1", "value": 7}
    ))
    assert store.get("run", "k1") is None  # the value is not an object
    assert store.snapshot()["misses"] == 4


def test_put_is_idempotent_for_equal_values(tmp_path):
    a = ResultStore(tmp_path)
    b = ResultStore(tmp_path)
    a.put("run", "k1", {"cycles": 1})
    b.put("run", "k1", {"cycles": 1})  # concurrent publisher, same digest
    assert a.get("run", "k1") == {"cycles": 1}
    assert len(list(tmp_path.glob("run-*.json"))) == 1


def test_store_stats_scans_entries(tmp_path):
    a = ResultStore(tmp_path)
    b = ResultStore(tmp_path)
    a.put("run", "k1", {"x": 1})
    a.get("run", "k1")
    a.get("run", "missing")
    b.put("wcet", "k2", {"y": 2})
    b.get("wcet", "k2")
    stats = store_stats(tmp_path)
    assert stats["entries"] == 2
    assert stats["bytes"] > 0
    # The live counters stay per handle (the daemon's /metrics); no
    # sidecar file is written next to the entries.
    assert a.snapshot() == {"hits": 1, "misses": 1, "stores": 1}
    assert b.snapshot() == {"hits": 1, "misses": 0, "stores": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run-k1.json", "wcet-k2.json",
    ]


def test_store_stats_on_missing_directory(tmp_path):
    stats = store_stats(tmp_path / "nope")
    assert stats["entries"] == 0 and stats["bytes"] == 0


def test_noop_is_not_cacheable():
    assert "noop" not in CACHEABLE_KINDS
    assert {"run", "wcet", "lint", "experiment"} <= CACHEABLE_KINDS

"""Concurrency stress for the run cache's atomic publish.

The service's worker pool (and ``--jobs N`` experiment fan-out) has
multiple processes loading and storing the *same* ``run_key``
concurrently.  The contract under that race is:

* a reader never observes a torn or partial JSON entry — it sees either
  a complete previous version or a complete new version;
* concurrent writers to one key leave exactly one valid entry behind;
* full-stack concurrent ``setup``/``run_pair`` calls against one shared
  cache directory all return identical results.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.snapshot import runcache

WRITES_PER_WORKER = 60
PAYLOAD_WORDS = 2000


def _set_cache_dir(directory: str) -> None:
    os.environ["REPRO_CACHE_DIR"] = directory


def _hammer_writes(path_str: str, worker: int) -> int:
    """Repeatedly publish self-consistent entries to one shared path."""
    path = Path(path_str)
    _set_cache_dir(str(path.parent))
    for i in range(WRITES_PER_WORKER):
        marker = worker * WRITES_PER_WORKER + i
        runcache.store(
            "run",
            "shared-key",
            {
                "marker": marker,
                "data": [marker] * PAYLOAD_WORDS,
                "sum": marker * PAYLOAD_WORDS,
            },
        )
    return WRITES_PER_WORKER


def _hammer_reads(path_str: str, stop_str: str) -> tuple[int, int]:
    """Read the shared path until the writers signal done; (reads, torn).

    The stop file (written by the parent once every writer returned)
    bounds the loop without racing it: the ``done`` flag is sampled
    *before* the read, so the final iteration always reads a published,
    complete entry — a fixed iteration count could spin through
    ``FileNotFoundError`` and exit before any writer got scheduled.
    """
    path, stop = Path(path_str), Path(stop_str)
    reads = torn = 0
    while True:
        done = stop.exists()
        try:
            payload = json.loads(path.read_text())["value"]
        except FileNotFoundError:
            if done:
                break  # writers finished without publishing: reads stay 0
            time.sleep(0.001)
            continue  # not yet published: fine, just not a read
        except ValueError:
            torn += 1  # partial/torn JSON: the bug this test exists for
            continue
        reads += 1
        if payload["sum"] != sum(payload["data"]):
            torn += 1
        if done or reads >= WRITES_PER_WORKER * 8:
            break
    return reads, torn


def _simulate(directory: str) -> tuple[float, float, int, int, int]:
    """Full-stack cell: setup + run_pair against the shared cache dir."""
    os.environ["REPRO_CACHE_DIR"] = directory
    from repro.experiments.common import run_pair, setup
    from repro.snapshot import runcache

    runcache.reset_stats()
    prep = setup("cnt", "tiny")
    pair = run_pair(prep, prep.deadline_tight, 4)
    return (
        pair.savings(standby=False),
        pair.savings(standby=True),
        int(runcache.STATS["run_hits"]),
        int(runcache.STATS["run_misses"]),
        int(runcache.STATS["run_stores"]),
    )


def test_atomic_write_json_never_torn_under_process_race(tmp_path):
    """Racing :func:`runcache.store` writers + raw readers on one entry:
    every read is a whole entry."""
    target = tmp_path / "cache" / "run-shared-key.json"
    stop = tmp_path / "writers-done"
    with ProcessPoolExecutor(max_workers=4) as pool:
        writers = [
            pool.submit(_hammer_writes, str(target), worker)
            for worker in range(2)
        ]
        readers = [
            pool.submit(_hammer_reads, str(target), str(stop))
            for _ in range(2)
        ]
        assert sum(f.result(timeout=120) for f in writers) == 120
        stop.touch()
        total_reads = 0
        for future in readers:
            reads, torn = future.result(timeout=120)
            assert torn == 0, "reader observed a torn/partial JSON entry"
            total_reads += reads
    assert total_reads > 0, "readers never saw a published entry"
    # Exactly one complete winner remains, and no leaked temp files.
    final = json.loads(target.read_text())["value"]
    assert final["sum"] == sum(final["data"])
    assert list(target.parent.glob("*.tmp")) == []


def test_concurrent_run_pair_same_key_consistent(tmp_path):
    """Processes sharing one cache dir and one run_key agree on results."""
    cache = str(tmp_path / "cache")
    context_kwargs = {"initializer": _set_cache_dir, "initargs": (cache,)}
    with ProcessPoolExecutor(max_workers=4, **context_kwargs) as pool:
        outcomes = [
            f.result(timeout=300)
            for f in [pool.submit(_simulate, cache) for _ in range(4)]
        ]
    savings = {(round(o[0], 12), round(o[1], 12)) for o in outcomes}
    assert len(savings) == 1, f"divergent results under the race: {outcomes}"
    # Every worker either simulated cold (2 stores: visa + simple) or hit
    # the published entries; corruption would have shown up as a miss
    # *after* a store had already landed plus a divergent result above.
    for _, _, hits, misses, stores in outcomes:
        assert hits + stores == 2

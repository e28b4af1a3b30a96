"""Shared content-addressed result store for ``repro serve --store-dir``.

Maps a job's coalesce digest (:func:`repro.service.jobs.coalesce_key` —
canonical JSON salted with the snapshot ``FORMAT_VERSION``, SHA-256) to
its completed result, on a directory every daemon pointed at it can
reach.  A daemon then serves any cached result *before* forking a
worker, so the heavy simulation is paid once and amortized over every
later submission, across restarts and across daemons sharing the
directory.

The store reuses the :mod:`repro.snapshot.runcache` publication
machinery (``canonical_json`` + ``atomic_write_json``) so concurrent
writers — several daemons completing the same digest — can only ever
publish byte-identical entries atomically.  Corrupt or mismatched
entries read as misses.

Only deterministic job kinds are stored (``CACHEABLE_KINDS``); ``noop``
jobs and payloads carrying ``no_cache: true`` bypass the store entirely.

Observability: each process keeps hit/miss/store counters and publishes
them as a per-owner ``stats-*.json`` sidecar (atomic, single-writer, so
no cross-process read-modify-write races).  :func:`store_stats` folds
the sidecars together with an on-disk scan — ``repro cache stats
--store`` renders it so operators can see fleet cache health without
talking to a live daemon.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from typing import Any

from repro.snapshot.runcache import atomic_write_json, cache_dir
from repro.snapshot.state import FORMAT_VERSION

JSONDict = dict[str, Any]

#: Job kinds whose results are pure functions of their normalized
#: payload and therefore safe to serve from the store.  ``noop`` is
#: excluded: it exists to exercise the serving path itself.
CACHEABLE_KINDS = frozenset({"run", "wcet", "lint", "experiment", "admit"})

_ENTRY_PREFIX = "result-"
_STATS_PREFIX = "stats-"


def default_store_dir() -> Path:
    """Shared-store directory (``REPRO_STORE_DIR`` overrides; defaults to
    ``store/`` inside the cache directory so one volume carries both)."""
    override = os.environ.get("REPRO_STORE_DIR")
    if override:
        return Path(override)
    return cache_dir() / "store"


class ResultStore:
    """One process's handle on the shared result directory."""

    def __init__(self, directory: Path, owner: str = "node"):
        self.directory = Path(directory)
        self.owner = owner
        self.stats: Counter[str] = Counter()

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{_ENTRY_PREFIX}{key}.json"

    def get(self, kind: str, key: str) -> JSONDict | None:
        """The stored result for ``key``, or None on miss/corruption."""
        try:
            raw = json.loads(self._entry_path(key).read_text())
            if (
                raw.get("format") != FORMAT_VERSION
                or raw.get("kind") != kind
                or not isinstance(raw.get("value"), dict)
            ):
                raise ValueError("store entry shape mismatch")
            value: JSONDict = raw["value"]
        except (OSError, ValueError, AttributeError):
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return value

    def put(self, kind: str, key: str, value: JSONDict) -> None:
        """Publish one completed result (atomic, best-effort)."""
        atomic_write_json(
            self._entry_path(key),
            {"format": FORMAT_VERSION, "kind": kind, "key": key, "value": value},
        )
        self.stats["stores"] += 1

    def flush_stats(self) -> None:
        """Publish this process's counters as its stats sidecar."""
        atomic_write_json(
            self.directory / f"{_STATS_PREFIX}{self.owner}.json",
            {
                "format": FORMAT_VERSION,
                "owner": self.owner,
                "hits": int(self.stats["hits"]),
                "misses": int(self.stats["misses"]),
                "stores": int(self.stats["stores"]),
            },
        )

    def snapshot(self) -> dict[str, int]:
        """This process's counters (for metrics endpoints)."""
        return {
            "hits": int(self.stats["hits"]),
            "misses": int(self.stats["misses"]),
            "stores": int(self.stats["stores"]),
        }


def store_stats(directory: Path | None = None) -> JSONDict:
    """Fleet-wide store health: on-disk scan plus summed sidecars."""
    where = Path(directory) if directory is not None else default_store_dir()
    entries = 0
    entry_bytes = 0
    counters: Counter[str] = Counter()
    owners: list[str] = []
    if where.is_dir():
        for path in where.iterdir():
            if not path.is_file():
                continue
            if path.name.startswith(_ENTRY_PREFIX) and path.suffix == ".json":
                try:
                    entry_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            elif path.name.startswith(_STATS_PREFIX) and path.suffix == ".json":
                try:
                    raw = json.loads(path.read_text())
                except (OSError, ValueError):
                    continue
                if raw.get("format") != FORMAT_VERSION:
                    continue
                owners.append(str(raw.get("owner", path.stem)))
                for op in ("hits", "misses", "stores"):
                    value = raw.get(op, 0)
                    if isinstance(value, int):
                        counters[op] += value
    hits, misses = counters["hits"], counters["misses"]
    return {
        "directory": str(where),
        "entries": entries,
        "bytes": entry_bytes,
        "hits": hits,
        "misses": misses,
        "stores": counters["stores"],
        "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
        "reporters": sorted(owners),
    }


__all__ = [
    "CACHEABLE_KINDS",
    "ResultStore",
    "default_store_dir",
    "store_stats",
]

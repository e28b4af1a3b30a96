"""Shared content-addressed result store for ``repro serve --store-dir``.

Maps a job's coalesce digest (:func:`repro.service.jobs.coalesce_key` —
canonical JSON salted with the snapshot ``FORMAT_VERSION``, SHA-256) to
its completed result, on a directory every daemon pointed at it can
reach.  A daemon then serves any cached result *before* forking a
worker, so the heavy simulation is paid once and amortized over every
later submission, across restarts and across daemons sharing the
directory.

Each result is one :mod:`repro.snapshot.runcache` entry of its job kind
(``<kind>-<digest>.json``) in the store's directory, so the store shares
the cache's envelope, atomic publish and miss rule: concurrent writers
completing the same digest publish byte-identical entries, and a
corrupt or mismatched entry reads as a counted miss.  Which kinds are
stored is :data:`repro.service.jobs.CACHEABLE_KINDS`.

The daemon's live hit/miss/store counters are on ``/metrics``
(``repro_store_ops_total``); :func:`store_stats` is the on-disk view
``repro cache stats --store`` renders.
"""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path
from typing import Any

from repro.snapshot import runcache

JSONDict = dict[str, Any]


def default_store_dir() -> Path:
    """Shared-store directory (``REPRO_STORE_DIR`` overrides; defaults to
    ``store/`` inside the cache directory so one volume carries both)."""
    override = os.environ.get("REPRO_STORE_DIR")
    if override:
        return Path(override)
    return runcache.cache_dir() / "store"


class ResultStore:
    """One process's handle on the shared result directory."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.stats: Counter[str] = Counter()

    def get(self, kind: str, key: str) -> JSONDict | None:
        """The stored result for ``key``, or None on miss/corruption."""
        return runcache.load(
            kind, key, runcache.json_object,
            directory=self.directory, stats=self.stats,
        )

    def put(self, kind: str, key: str, value: JSONDict) -> None:
        """Publish one completed result (atomic, best-effort)."""
        runcache.store(
            kind, key, value, directory=self.directory, stats=self.stats
        )

    def snapshot(self) -> dict[str, int]:
        """This process's counters (for status responses)."""
        return {
            "hits": int(self.stats["hits"]),
            "misses": int(self.stats["misses"]),
            "stores": int(self.stats["stores"]),
        }


def store_stats(directory: Path | None = None) -> JSONDict:
    """The store's entries on disk: count and bytes."""
    where = Path(directory) if directory is not None else default_store_dir()
    entries = runcache.cache_entries(where)
    return {
        "directory": str(where),
        "entries": len(entries),
        "bytes": sum(size for _, size in entries),
    }


__all__ = [
    "ResultStore",
    "default_store_dir",
    "store_stats",
]

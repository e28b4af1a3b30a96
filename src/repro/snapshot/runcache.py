"""Every cache: the on-disk entries, memoized runs and the in-process memo.

Every disk entry the package keeps goes through :func:`load` and
:func:`store`: whole runs (``run``), warm-up prefixes (``warmup``),
experiment set-up (``setup``), admission decisions (``admit``), the
service's result store (one entry per job kind, in its own directory)
and compiled block code (``blockjit``).  This module owns each entry's
path (``<kind>-<key>`` under :func:`cache_dir`), its
envelope ``{format, kind, key, value}`` (canonical JSON, or a ``marshal``
blob for block code), the :func:`cache_disabled` test, the atomic
publish (:func:`atomic_write`) and the miss rule: anything unreadable,
foreign-keyed or of another :data:`~repro.snapshot.state.FORMAT_VERSION`
is a counted miss, so a version bump invalidates every kind at once.
:func:`cache_entries` is the one directory scan behind ``repro cache``.

A whole-run simulation is deterministic: the same program, runtime
configuration, DVS table, and flush set always produce the same
``TaskRun`` list.  :func:`load_runs`/:func:`store_runs` memoize those
lists so repeated figure/ablation invocations skip the simulation.  Key
derivation (:func:`run_key`) covers every input the result depends on —
program digest, all ``RuntimeConfig`` fields, the DVS table's operating
points, the flush set, runtime kind plus any extras (D-cache bounds,
speculation policy) — and is salted with the format version.

``REPRO_NO_CACHE=1`` bypasses loads *and* stores; ``REPRO_CACHE_DIR``
relocates the directory.  :func:`cache_disabled` is the one place the
no-cache decision is resolved: entry points (``--no-cache``, a service
payload's ``no_cache``) scope it with :func:`no_cache_override`, and
:func:`repro.experiments.parallel.parallel_map` ships the resolved bool
to its worker processes.  Entries are published atomically so parallel
experiment workers may race on a key.  :func:`memo` is the one
in-process memo (on under no-cache too), and every count, disk and memo
alike, is ``STATS["<kind>_<op>"]``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import marshal
import os
import tempfile
import threading
from collections import Counter, OrderedDict
from collections.abc import Callable, Iterable, Iterator
from contextvars import ContextVar
from pathlib import Path
from typing import TYPE_CHECKING, Any, TypeVar

from repro.errors import SnapshotError
from repro.snapshot import state

if TYPE_CHECKING:
    from repro.isa.program import Program
    from repro.visa.dvs import DVSTable, Setting
    from repro.visa.runtime import RuntimeConfig, TaskRun

#: Every cache count since import (or :func:`reset_stats`) as
#: ``<kind>_<op>``, ``op`` one of :data:`OPS` (``run_hits``,
#: ``warmup_memo_hits``); kinds hold no ``_``, so the first one splits.
STATS: Counter[str] = Counter()
OPS = ("hits", "misses", "stores", "memo_hits", "memo_misses")


def reset_stats() -> None:
    """Zero the counters (tests and benchmarks)."""
    STATS.clear()


def kind_stats(stats: dict[str, int] | None = None) -> dict[str, dict[str, int]]:
    """``{kind: {op: count}}`` of :data:`STATS` (or a delta of it), with
    every kind of :data:`KINDS` present and every op of :data:`OPS`."""
    table = {kind: dict.fromkeys(OPS, 0) for kind in KINDS}
    for name, count in (STATS if stats is None else stats).items():
        kind, _, op = name.partition("_")
        table.setdefault(kind, dict.fromkeys(OPS, 0))[op] = int(count)
    return table


# -- the in-process memo --------------------------------------------------------

#: Entries each memo kind keeps, least recently used evicted first
#: (``None``: unbounded); docs/performance.md tabulates the kinds.
MEMO_BOUNDS: dict[str, int | None] = {
    "analyzer": 64,
    "setup": None,
    "warmup": None,
    "admit-program": 64,
    "admit-wcet": 1024,
}

#: Every kind in :data:`STATS`: the disk kinds, then the memo-only ones.
KINDS = ("run", "warmup", "setup", "admit", "blockjit", "analyzer",
         "admit-program", "admit-wcet")

_MEMOS: dict[str, OrderedDict[Any, Any]] = {
    kind: OrderedDict() for kind in MEMO_BOUNDS
}
_MEMO_LOCK = threading.Lock()
_ABSENT = object()

T = TypeVar("T")


def memo(kind: str, key: Any, build: Callable[[], T]) -> T:
    """The ``kind`` memo's value for ``key`` (content, such as a program
    digest), from ``build()`` on a miss.  ``build`` runs outside the lock,
    so it may consult other memos; of two racing builds the later is kept.
    """
    table = _MEMOS[kind]
    with _MEMO_LOCK:
        value = table.get(key, _ABSENT)
        if value is not _ABSENT:
            table.move_to_end(key)
            STATS[kind + "_memo_hits"] += 1
            return value
    value = build()
    with _MEMO_LOCK:
        STATS[kind + "_memo_misses"] += 1
        table[key] = value
        bound = MEMO_BOUNDS[kind]
        if bound is not None and len(table) > bound:
            table.popitem(last=False)
    return value


def memo_keys(kind: str) -> list[Any]:
    """The ``kind`` memo's keys, least recently used first."""
    with _MEMO_LOCK:
        return list(_MEMOS[kind])


def clear_memory() -> None:
    """Empty every memo (tests and benchmarks: a fresh process's state)."""
    with _MEMO_LOCK:
        for table in _MEMOS.values():
            table.clear()


def cache_dir() -> Path:
    """Directory for all on-disk caches (``REPRO_CACHE_DIR`` overrides)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


#: Context-local override for :func:`cache_disabled`.  ``None`` defers to
#: the ``REPRO_NO_CACHE`` environment variable; ``True``/``False`` wins
#: outright.  Being a :class:`~contextvars.ContextVar` (not plain module
#: state, and never ``os.environ``), concurrent in-process callers — the
#: service's asyncio tasks in particular — cannot race on it.
_NO_CACHE_OVERRIDE: ContextVar[bool | None] = ContextVar(
    "repro_no_cache_override", default=None
)


def cache_disabled() -> bool:
    """True when the disk caches should be bypassed.

    An explicit :func:`no_cache_override` (entered by the CLI's
    ``--no-cache`` or a service payload's ``no_cache``) takes precedence;
    the ``REPRO_NO_CACHE`` environment variable is only the default.
    """
    override = _NO_CACHE_OVERRIDE.get()
    if override is not None:
        return override
    return os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")


@contextlib.contextmanager
def no_cache_override(value: bool | None) -> Iterator[None]:
    """Scope an explicit cache-bypass decision (``None`` = no opinion).

    Used by the entry points to honor ``--no-cache`` without mutating
    global environment state that parallel in-process callers would race
    on; worker processes re-enter the override around each cell with the
    caller's resolved value (see
    :func:`repro.experiments.parallel.parallel_map`).
    """
    token = _NO_CACHE_OVERRIDE.set(value)
    try:
        yield
    finally:
        _NO_CACHE_OVERRIDE.reset(token)


def atomic_write(path: Path, data: bytes) -> None:
    """Best-effort atomic publish (concurrent workers may race on a key);
    a failed write or rename (a full disk, say) removes its temp file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError:
        return  # caching is best-effort; the computed result is still returned
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


# -- entries --------------------------------------------------------------------

#: Kinds stored as a ``marshal`` blob (compiled code has no JSON form);
#: every other kind is canonical JSON.
_MARSHAL_KINDS = frozenset({"blockjit"})

#: What reading a damaged, stale or foreign entry can raise: all misses.
_MISS_ERRORS = (
    OSError, EOFError, AttributeError, IndexError, KeyError, TypeError,
    ValueError, SnapshotError,
)


def _entry_path(kind: str, key: str, directory: Path | None = None) -> Path:
    """Where the ``(kind, key)`` entry lives (the cache directory unless
    the caller owns another, as the result store does)."""
    suffix = ".marshal" if kind in _MARSHAL_KINDS else ".json"
    return (cache_dir() if directory is None else directory) / (
        f"{kind}-{key}{suffix}"
    )


def _count(kind: str, event: str, stats: Counter[str] | None) -> None:
    if stats is None:
        STATS[f"{kind}_{event}"] += 1
    else:
        stats[event] += 1


def load(
    kind: str,
    key: str,
    decode: Callable[[Any], T],
    *,
    directory: Path | None = None,
    stats: Counter[str] | None = None,
) -> T | None:
    """``decode(value)`` of the ``(kind, key)`` entry, or None.

    An entry is the envelope ``{format, kind, key, value}``.  A missing,
    unreadable, truncated, foreign-keyed or other-format entry, or one
    whose value ``decode`` rejects, is a counted miss, never a result.
    Hits and misses count in :data:`STATS` as ``<kind>_hits``/
    ``<kind>_misses``, or as ``hits``/``misses`` in ``stats`` when given
    (the daemon's result store keeps its own).
    Under :func:`cache_disabled` nothing is read or counted.
    """
    if cache_disabled():
        return None
    try:
        data = _entry_path(kind, key, directory).read_bytes()
        envelope = (
            marshal.loads(data) if kind in _MARSHAL_KINDS else json.loads(data)
        )
        if not (
            isinstance(envelope, dict)
            and envelope.get("format") == state.FORMAT_VERSION
            and envelope.get("kind") == kind
            and envelope.get("key") == key
        ):
            raise ValueError(f"stale or foreign {kind} entry")
        value = decode(envelope["value"])
    except _MISS_ERRORS:
        _count(kind, "misses", stats)
        return None
    _count(kind, "hits", stats)
    return value


def store(
    kind: str,
    key: str,
    value: Any,
    *,
    directory: Path | None = None,
    stats: Counter[str] | None = None,
) -> None:
    """Publish ``value`` as the ``(kind, key)`` entry (atomic, best-effort;
    a no-op under :func:`cache_disabled`).  Counts a store like
    :func:`load` counts a hit."""
    if cache_disabled():
        return
    envelope = {
        "format": state.FORMAT_VERSION, "kind": kind, "key": key,
        "value": value,
    }
    atomic_write(
        _entry_path(kind, key, directory),
        marshal.dumps(envelope)
        if kind in _MARSHAL_KINDS
        else state.canonical_json(envelope).encode(),
    )
    _count(kind, "stores", stats)


def json_object(value: Any) -> dict[str, Any]:
    """``decode`` for a value that must be a JSON object."""
    if not isinstance(value, dict):
        raise TypeError("cache entry value is not an object")
    return value


# -- key derivation -------------------------------------------------------------


def table_fields(table: DVSTable) -> list[list[float]]:
    """The DVS operating points as JSON-able ``[freq_hz, volts]`` pairs."""
    return [[s.freq_hz, s.volts] for s in table]


def run_key(
    kind: str,
    program: Program,
    config: RuntimeConfig,
    table: DVSTable,
    flush_instances: Iterable[int] = frozenset(),
    extra: dict[str, Any] | None = None,
) -> str:
    """Cache key for one runtime's full run.

    Any field change — program digest, config, DVS table, flush set,
    extras, or the snapshot format version — yields a different key, which
    is how invalidation works: stale entries are simply never looked up
    again (``repro cache clear`` reclaims the space).
    """
    payload = {
        "format": state.FORMAT_VERSION,
        "kind": kind,
        "program": state.program_digest(program),
        "config": dataclasses.asdict(config),
        "table": table_fields(table),
        "flush": sorted(flush_instances),
        "extra": extra or {},
    }
    return hashlib.sha256(
        state.canonical_json(payload).encode()
    ).hexdigest()[:24]


# -- TaskRun (de)serialization ---------------------------------------------------


def _dump_setting(setting: Setting) -> list[float]:
    return [setting.freq_hz, setting.volts]


def serialize_runs(runs: list[TaskRun]) -> list[dict[str, Any]]:
    """JSON-able form of a ``TaskRun`` list (exact float round-trip)."""
    return [
        {
            "index": run.index,
            "phases": [
                {
                    "kind": phase.kind,
                    "mode": phase.mode,
                    "freq_hz": phase.freq_hz,
                    "volts": phase.volts,
                    "cycles": phase.cycles,
                    "seconds": phase.seconds,
                    "counters": {
                        k: phase.counters[k] for k in sorted(phase.counters)
                    },
                }
                for phase in run.phases
            ],
            "mispredicted": run.mispredicted,
            "completion_seconds": run.completion_seconds,
            "deadline": run.deadline,
            "f_spec": _dump_setting(run.f_spec),
            "f_rec": _dump_setting(run.f_rec),
        }
        for run in runs
    ]


def deserialize_runs(payload: list[dict[str, Any]]) -> list[TaskRun]:
    """Inverse of :func:`serialize_runs`; results compare ``==`` to originals."""
    # Imported here: the runtimes' WCETs come from this module's memo.
    from repro.visa.dvs import Setting
    from repro.visa.runtime import Phase, TaskRun

    def setting(pair: list[float]) -> Setting:
        return Setting(freq_hz=float(pair[0]), volts=float(pair[1]))

    return [
        TaskRun(
            index=int(entry["index"]),
            phases=[
                Phase(
                    kind=str(p["kind"]),
                    mode=str(p["mode"]),
                    freq_hz=float(p["freq_hz"]),
                    volts=float(p["volts"]),
                    cycles=int(p["cycles"]),
                    seconds=float(p["seconds"]),
                    counters=Counter(
                        {str(k): int(v) for k, v in p["counters"].items()}
                    ),
                )
                for p in entry["phases"]
            ],
            mispredicted=bool(entry["mispredicted"]),
            completion_seconds=float(entry["completion_seconds"]),
            deadline=float(entry["deadline"]),
            f_spec=setting(entry["f_spec"]),
            f_rec=setting(entry["f_rec"]),
        )
        for entry in payload
    ]


# -- load/store -----------------------------------------------------------------


def load_runs(name: str, key: str) -> list[TaskRun] | None:
    """Cached run for ``key``, or None on miss/bypass/corruption."""
    return load("run", f"{name}-{key}", deserialize_runs)


def store_runs(name: str, key: str, runs: list[TaskRun]) -> None:
    """Publish a computed run under ``key`` (no-op when caching is off)."""
    store("run", f"{name}-{key}", serialize_runs(runs))


# -- CLI support ----------------------------------------------------------------


def cache_entries(directory: Path | None = None) -> list[tuple[str, int]]:
    """``(filename, bytes)`` of every entry file, largest first: the one
    directory scan.  Covers every kind's entries plus the temp files a
    killed writer may leave; ``directory`` defaults to :func:`cache_dir`."""
    where = cache_dir() if directory is None else directory
    if not where.is_dir():
        return []
    entries: list[tuple[str, int]] = []
    for path in where.iterdir():
        if path.is_file() and path.suffix in (".json", ".marshal", ".tmp"):
            try:
                entries.append((path.name, path.stat().st_size))
            except OSError:
                continue
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries


def cache_stats() -> dict[str, Any]:
    """One collector for every cache-observability surface.

    One ``kinds`` row per kind: its entries and bytes on disk and its
    :func:`kind_stats` ops.  ``blockjit`` is that kind's row again, left
    out of the top-level totals.  ``repro cache stats`` renders this and
    the service's ``/metrics`` feeds its disk gauges from it.
    """
    entries = cache_entries()
    kinds = {
        kind: {"entries": 0, "bytes": 0, **ops}
        for kind, ops in kind_stats().items()
    }
    for name, size in entries:
        row = kinds.get(name.partition("-")[0])
        if row is not None:
            row["entries"] += 1
            row["bytes"] += size
    codegen = kinds["blockjit"]
    return {
        "directory": str(cache_dir()),
        "entries": len(entries) - codegen["entries"],
        "bytes": sum(size for _, size in entries) - codegen["bytes"],
        "kinds": kinds,
        "blockjit": codegen,
    }


def clear_cache() -> tuple[int, int]:
    """Delete every entry in the cache directory (every kind, block code
    included); returns ``(files_removed, bytes_freed)``."""
    removed = freed = 0
    directory = cache_dir()
    for name, size in cache_entries():
        try:
            (directory / name).unlink()
        except OSError:
            continue
        removed += 1
        freed += size
    return removed, freed

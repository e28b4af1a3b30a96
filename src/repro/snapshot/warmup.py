"""Warm-up prefix forking: simulate the shared pre-flush prefix once.

Figure 4 runs the same (benchmark, deadline) cell at several flush rates,
and every flush set lives entirely inside the steady-state window — the
warm-up prefix (instances ``[0, warm_start)``) is bit-identical across
rates.  This module simulates that prefix once, snapshots the full
runtime state (machine, core, predictors, PET histories, frequency pair,
checkpoint plan), and *forks* each rate's cell from the snapshot, cutting
the simulated instance count by roughly a third for the standard four
rates.  A differential test (``tests/test_snapshot.py``) proves forked
runs equal cold runs bit for bit.

Prefix payloads are shared two ways:

* in-process (:data:`_MEMORY`), covering serial sweeps where all rates of
  a benchmark run in one process — this is computation restructuring, not
  a cache, so it stays on even under ``REPRO_NO_CACHE=1``;
* on disk under the shared cache directory, covering process-parallel
  sweeps and repeated invocations — bypassed by ``REPRO_NO_CACHE=1`` like
  every other disk cache.

Every fork restores from the *serialized* payload (never from a live
runtime), so the snapshot/restore path is exercised on each use and cells
stay independent.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from repro.snapshot import runcache

if TYPE_CHECKING:
    from repro.isa.program import Program
    from repro.visa.dvs import DVSTable
    from repro.visa.runtime import RuntimeConfig, TaskRun

#: In-process prefix payloads, keyed like the disk entries.
_MEMORY: dict[str, dict[str, Any]] = {}

#: In-process observability: prefix reuse vs. fresh simulation.
STATS: Counter[str] = Counter()


def clear_memory_cache() -> None:
    """Drop in-process prefix payloads (tests and benchmarks)."""
    _MEMORY.clear()
    STATS.clear()


def forkable(
    flush_instances: Iterable[int], warm_start: int | None, instances: int
) -> bool:
    """True when instances ``[0, warm_start)`` are flush-free and non-empty.

    A prefix is only shareable if no flush lands inside it — otherwise the
    'shared' warm-up would differ between rates.
    """
    if warm_start is None or not 0 < warm_start < instances:
        return False
    return all(i >= warm_start for i in flush_instances)


def warm_runtime(
    name: str,
    kind: str,
    make: Callable[[], Any],
    program: Program,
    config: RuntimeConfig,
    table: DVSTable,
    warm_start: int,
    extra: dict[str, Any] | None = None,
) -> tuple[Any, list[TaskRun]]:
    """A runtime advanced past the warm-up prefix, plus the prefix's runs.

    ``make`` builds a fresh runtime positioned at instance 0.  On a prefix
    hit the runtime is restored from the stored snapshot; on a miss the
    prefix is simulated and its snapshot published.  Either way the caller
    receives a runtime ready to execute instance ``warm_start`` and the
    ``TaskRun`` list for instances ``[0, warm_start)``.
    """
    key = runcache.run_key(
        kind + "-warmup",
        program,
        config,
        table,
        frozenset(),
        {**(extra or {}), "warm_start": warm_start},
    )

    def fork(
        payload: dict[str, Any],
    ) -> tuple[dict[str, Any], Any, list[TaskRun]]:
        runtime = make()
        runtime.restore_state(payload["state"])
        return payload, runtime, runcache.deserialize_runs(payload["runs"])

    memo = _MEMORY.get(key)
    forked = (
        fork(memo)
        if memo is not None
        else runcache.load("warmup", f"{name}-{key}", fork)
    )
    if forked is not None:
        payload, runtime, runs = forked
        STATS["reused"] += 1
        _MEMORY[key] = payload
        return runtime, runs

    runtime = make()
    runs = runtime.run_span(0, warm_start)
    payload = {
        "state": runtime.snapshot_state(),
        "runs": runcache.serialize_runs(runs),
    }
    _MEMORY[key] = payload
    runcache.store("warmup", f"{name}-{key}", payload)
    STATS["simulated"] += 1
    return runtime, runs

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

* in-process (the ``warmup`` memo of :mod:`repro.snapshot.runcache`),
  covering serial sweeps where all rates of a benchmark run in one process
  — computation sharing, not a cache, so it stays on under no-cache;
* on disk under the shared cache directory, covering process-parallel
  sweeps and repeated invocations — bypassed by ``REPRO_NO_CACHE=1`` like
  every other disk cache.

Every fork restores from the *serialized* payload (never from a live
runtime), so the snapshot/restore path is exercised on each use and cells
stay independent.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from repro.snapshot import runcache

if TYPE_CHECKING:
    from repro.isa.program import Program
    from repro.visa.dvs import DVSTable
    from repro.visa.runtime import RuntimeConfig, TaskRun


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

    ready: list[tuple[Any, list[TaskRun]]] = []  # the runtime handed out

    def fork(payload: dict[str, Any]) -> dict[str, Any]:
        runtime = make()
        runtime.restore_state(payload["state"])
        ready.append((runtime, runcache.deserialize_runs(payload["runs"])))
        return payload

    def build() -> dict[str, Any]:
        payload = runcache.load("warmup", f"{name}-{key}", fork)
        if payload is None:
            runtime = make()
            runs = runtime.run_span(0, warm_start)
            ready.append((runtime, runs))
            payload = {
                "state": runtime.snapshot_state(),
                "runs": runcache.serialize_runs(runs),
            }
            runcache.store("warmup", f"{name}-{key}", payload)
        return payload

    payload = runcache.memo("warmup", key, build)
    if not ready:
        fork(payload)
    return ready[0]

"""Process-parallel fan-out for the experiment drivers.

Every experiment in this package is a loop over independent *cells* —
(benchmark × deadline × configuration) tuples that share no mutable state:
each cell builds its own machines and runtimes from scratch, and the only
cross-cell sharing is the read-only :func:`repro.experiments.common.setup`
result (recomputed or disk-cache-loaded per process).  That makes them
embarrassingly parallel, and this module is the one place that knows how
to fan them out.

``parallel_map(fn, cells)`` preserves input order and runs serially unless
parallelism was requested, so serial and parallel runs produce
*bit-identical* row lists (a regression test asserts this).  The worker
``fn`` must be a module-level function and every cell argument must be
picklable — pass benchmark names and numbers, not ``Workload`` objects
(input generators hold closures, which do not pickle).

Knobs:

* ``REPRO_JOBS`` — worker process count for all experiment drivers and
  benchmarks (default 1 = serial; any value <= 1 never spawns a pool).
* ``jobs=`` keyword on each experiment's ``run()`` and the CLI's
  ``--jobs`` flag override the environment.
* No-cache is not a parameter here: callers scope it with
  :func:`repro.snapshot.runcache.no_cache_override`, and
  :func:`parallel_map` reads :func:`~repro.snapshot.runcache.cache_disabled`
  once and ships that bool to every worker cell as a value, so workers
  honour it under any ``multiprocessing`` start method.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import TypeVar

from repro.errors import ReproError
from repro.snapshot import runcache

C = TypeVar("C")
R = TypeVar("R")


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ReproError(
            f"REPRO_JOBS must be an integer, got {env!r}"
        ) from None


def _run_cell(fn: Callable[[C], R], no_cache: bool, cell: C) -> R:
    """Run one cell in a worker under the caller's cache-bypass decision.

    Module-level (and composed via :func:`functools.partial`) so it
    pickles into worker processes: a worker started with ``spawn`` or
    ``forkserver`` does not inherit the caller's context variables.
    """
    with runcache.no_cache_override(no_cache):
        return fn(cell)


def parallel_map(
    fn: Callable[[C], R],
    cells: Iterable[C],
    jobs: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``cells``, optionally across worker processes.

    Results come back in input order regardless of completion order, so the
    output is identical to ``[fn(c) for c in cells]``.  With ``jobs`` (or
    ``REPRO_JOBS``) at 1 — or a single cell — no pool is created and the
    map runs in-process, which also keeps tracebacks simple.

    The caller's :func:`~repro.snapshot.runcache.cache_disabled` is read
    once and passed to each worker cell, so a no-cache decision scoped
    with :func:`~repro.snapshot.runcache.no_cache_override` holds in
    every worker.

    Worker exceptions propagate to the caller (the pool is shut down
    eagerly; remaining cells may or may not have run, exactly like an
    exception mid-way through the serial loop).
    """
    items: Sequence[C] = cells if isinstance(cells, Sequence) else list(cells)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(items) <= 1:
        return [fn(c) for c in items]
    call = partial(_run_cell, fn, runcache.cache_disabled())
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(call, items))


__all__ = ["default_jobs", "parallel_map"]

"""CI smoke check: the on-disk entries actually hit.

Runs one figure4 cell through the real experiment path, then re-invokes
it twice from cold in-process state (``runcache.clear_memory()``),
reading the shared ``runcache.STATS`` counters (``<kind>_<op>``):

1. in the cache directory itself, the re-invocation must hit the
   set-up entry and both runtimes' run entries;
2. in a scratch directory seeded with only the set-up and warm-up
   entries, it must hit the set-up entry and both warm-up prefixes
   (the run entries are absent, so the prefixes are what is read).

Then one admission decision is made and re-made from cold in-process
state, which must hit its ``admit`` entry.  Each re-invocation's result
must equal the first.  Block code has its own check
(``jit_parity_smoke.py --warm``).  Uses whatever
``REPRO_CACHE_DIR`` points at, so CI can persist the directory across
jobs via ``actions/cache`` and this check also validates restored cache
contents.

Usage::

    PYTHONPATH=src python benchmarks/run_cache_smoke.py
"""

from __future__ import annotations

import os
import pathlib
import shutil
import sys
import tempfile
from collections.abc import Callable

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reinvoke(compute: Callable[[], object]) -> tuple[object, dict[str, int]]:
    """``compute()`` from cold in-process state, plus the counters."""
    from repro.snapshot import runcache

    runcache.clear_memory()
    runcache.reset_stats()
    result = compute()
    return result, dict(runcache.STATS)


def _check(label: str, stats: dict[str, int], expected: dict[str, int]) -> bool:
    seen = ", ".join(f"{stats.get(n, 0)} {n}" for n in sorted(expected))
    print(f"run_cache_smoke: {label} -> {seen}")
    short = [n for n, least in expected.items() if stats.get(n, 0) < least]
    for name in short:
        print(
            f"run_cache_smoke: FAIL: {label}: expected at least "
            f"{expected[name]} {name}",
            file=sys.stderr,
        )
    return not short


def main() -> int:
    """Run the check; returns a process exit code."""
    if os.environ.get("REPRO_NO_CACHE"):
        print("run_cache_smoke: REPRO_NO_CACHE is set; nothing to check")
        return 1

    from repro.experiments.figure4 import _cell
    from repro.rt import admission
    from repro.snapshot import runcache

    def cell() -> object:
        return _cell(("cnt", 0.2, "tiny", 8))

    first = cell()
    directory = runcache.cache_dir()
    rows = []

    row, stats = _reinvoke(cell)
    rows.append(row)
    # One VISA + one simple-fixed run per cell.
    ok = _check(
        f"re-invocation in {directory}", stats,
        {"run_hits": 2, "setup_hits": 1},
    )

    with tempfile.TemporaryDirectory() as scratch:
        for pattern in ("setup-*.json", "warmup-*.json"):
            for path in directory.glob(pattern):
                shutil.copy(path, scratch)
        os.environ["REPRO_CACHE_DIR"] = scratch
        try:
            row, stats = _reinvoke(cell)
        finally:
            os.environ["REPRO_CACHE_DIR"] = str(directory)
    rows.append(row)
    ok &= _check(
        "re-invocation without run entries", stats,
        {"setup_hits": 1, "warmup_hits": 2},
    )

    tasks = admission.normalize_payload(
        {"tasks": [{"workload": "cnt", "period": 0.01}]}
    )

    def decide() -> object:
        return admission.cached_decide(tasks)

    decision = decide()
    again, stats = _reinvoke(decide)
    ok &= _check("admission re-decision", stats, {"admit_hits": 1})

    if any(row != first for row in rows) or again != decision:
        print(
            "run_cache_smoke: FAIL: cached result differs from computed one",
            file=sys.stderr,
        )
        return 1
    if not ok:
        return 1
    print("run_cache_smoke: OK (cached results identical to computed ones)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())

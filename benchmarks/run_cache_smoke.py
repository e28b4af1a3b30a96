"""CI smoke check: the on-disk entries actually hit.

Runs one figure4 cell through the real experiment path, then re-invokes
it twice from cold in-process state (set-up memo and warm-up prefixes
dropped), reading the shared ``runcache.STATS`` counters:

1. in the cache directory itself, the re-invocation must hit the
   set-up entry and both runtimes' run entries;
2. in a scratch directory seeded with only the set-up and warm-up
   entries, it must hit the set-up entry and both warm-up prefixes
   (the run entries are absent, so the prefixes are what is read).

Each re-invocation's row must equal the first.  Uses whatever
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

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reinvoke(cell: tuple) -> tuple[object, dict[str, int]]:
    """The cell's row from cold in-process state, plus the counters."""
    from repro.experiments import common
    from repro.experiments.figure4 import _cell
    from repro.snapshot import runcache, warmup

    common.setup.cache_clear()
    warmup.clear_memory_cache()
    runcache.reset_stats()
    row = _cell(cell)
    return row, dict(runcache.STATS)


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
    from repro.snapshot import runcache

    cell = ("cnt", 0.2, "tiny", 8)
    first = _cell(cell)
    directory = runcache.cache_dir()
    rows = []

    row, stats = _reinvoke(cell)
    rows.append(row)
    # One VISA + one simple-fixed run per cell.
    ok = _check(
        f"re-invocation in {directory}", stats, {"hits": 2, "setup_hits": 1}
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

    if any(row != first for row in rows):
        print(
            "run_cache_smoke: FAIL: cached row differs from computed row",
            file=sys.stderr,
        )
        return 1
    if not ok:
        return 1
    print("run_cache_smoke: OK (cached rows identical to computed row)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())

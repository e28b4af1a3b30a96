"""One miss rule for every on-disk entry kind (:mod:`repro.snapshot.runcache`).

Each kind — whole runs, warm-up prefixes, experiment set-up, admission
decisions, the service result store and blockjit block code — is driven
through the code path that caches it.  A truncated, foreign-keyed or
other-format entry must be a counted miss whose recomputed answer equals
the cold one, and a ``FORMAT_VERSION`` bump must turn every entry of
every kind into a miss.
"""

from __future__ import annotations

import json
import marshal
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest

from repro.experiments import common
from repro.memory.machine import Machine
from repro.pipelines.inorder import InOrderCore
from repro.rt import admission
from repro.service import jobs
from repro.service.store import ResultStore
from repro.snapshot import runcache, state

INSTANCES, WARM = 8, 4
TASKS = {"tasks": [{"workload": "cnt", "period": 0.01}]}
LINT = jobs.normalize("lint", {"workload": "cnt"})


@dataclass
class Kind:
    """One entry kind: how to compute through its cache, where its
    entries live and which counter counts its misses."""

    compute: Callable[[], Any]
    directory: Path
    prefix: str
    misses: Callable[[], int]
    entries: int  # entries one compute consults


def _pair(warm_start: int | None = None) -> tuple[list, list]:
    prep = common.setup("cnt", "tiny")
    pair = common.run_pair(
        prep, prep.deadline_tight, INSTANCES, warm_start=warm_start
    )
    return pair.visa_runs, pair.simple_runs


def _forked_pair() -> tuple[list, list]:
    """Runs that miss the run entries, so the warm-up entries are read."""
    runcache.clear_memory()
    for path in runcache.cache_dir().glob("run-*"):
        path.unlink()
    return _pair(WARM)


def _setup() -> tuple:
    runcache.clear_memory()
    prep = common.setup("cnt", "tiny")
    return (
        prep.dcache_bounds, prep.wcet_1ghz_seconds, prep.deadline_tight,
        prep.deadline_loose,
    )


def _decision() -> dict:
    return admission.cached_decide(admission.normalize_payload(TASKS))


def _served(store: ResultStore) -> dict:
    """What the daemon does: the stored result, else execute and put."""
    key = jobs.coalesce_key("lint", LINT)
    value = store.get("lint", key)
    if value is None:
        value = jobs.execute("lint", LINT)
        store.put("lint", key, value)
    return value


def _block_code() -> tuple:
    program = common.setup("cnt", "tiny").workload.program
    program._blockjit_tables.clear()
    machine = Machine(program)
    result = InOrderCore(machine).run()
    return result.reason, result.end_cycle, machine.memory.snapshot()


def _kind(name: str, cache: Path) -> Kind:
    if name == "result":
        store = ResultStore(cache / "store")
        return Kind(
            lambda: _served(store), store.directory, "lint-",
            lambda: store.stats["misses"], 1,
        )
    compute, entries = {
        "run": (_pair, 2),
        "warmup": (_forked_pair, 2),
        "setup": (_setup, 1),
        "admit": (_decision, 1),
        "blockjit": (_block_code, 1),
    }[name]
    return Kind(
        compute, cache, f"{name}-", lambda: runcache.STATS[f"{name}_misses"], entries
    )


def _rewrite(path: Path, field: str, value: Any) -> None:
    """Replace one envelope field, keeping the entry's encoding."""
    if path.suffix == ".marshal":
        envelope = marshal.loads(path.read_bytes())
        envelope[field] = value
        path.write_bytes(marshal.dumps(envelope))
    else:
        envelope = json.loads(path.read_text())
        envelope[field] = value
        path.write_text(json.dumps(envelope))


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    runcache.clear_memory()
    yield tmp_path
    runcache.clear_memory()


KINDS = ["run", "warmup", "setup", "admit", "result", "blockjit"]
FAULTS = ["truncated", "foreign-key", "other-format", "format-bump"]


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name", KINDS)
def test_damaged_or_stale_entry_is_a_counted_miss(
    name, fault, cache, monkeypatch
):
    kind = _kind(name, cache)
    cold = kind.compute()
    paths = sorted(kind.directory.glob(f"{kind.prefix}*"))
    assert len(paths) == kind.entries, paths
    before = kind.misses()
    assert kind.compute() == cold  # served from the entries
    assert kind.misses() == before

    for path in paths:
        if fault == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif fault == "foreign-key":
            _rewrite(path, "key", "foreign")
        elif fault == "other-format":
            _rewrite(path, "format", state.FORMAT_VERSION + 1)
    if fault == "format-bump":
        monkeypatch.setattr(state, "FORMAT_VERSION", state.FORMAT_VERSION + 1)

    assert kind.compute() == cold
    assert kind.misses() == before + kind.entries
    # The recompute republished good entries: the next read hits.
    assert kind.compute() == cold
    assert kind.misses() == before + kind.entries

"""The process-wide shared WCET analysis behind ``VISASpec.wcet``.

Both runtimes of a cell, and every later cell of the same program, get
their recovery-frequency WCETs from one private analyzer per
``(spec, program)``: each memory-stall count is analyzed once per
process.  Sharing must never change a result, and must never flow
through an analyzer a caller owns (callers mutate loop bounds,
``run_cls`` and D-cache bounds, e.g. the seeded-defect corpus).
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.experiments import common
from repro.experiments.common import run_pair
from repro.isa.assembler import assemble
from repro.snapshot import runcache, warmup
from repro.snapshot.state import program_digest
from repro.visa import spec as spec_mod
from repro.visa.dvs import DVSTable
from repro.visa.runtime import RuntimeConfig, SimpleFixedRuntime
from repro.visa.spec import VISASpec, clear_shared_wcet
from repro.wcet import analyzer as analyzer_mod
from repro.wcet.analyzer import _Run
from repro.workloads import get_workload

INSTANCES = 12


class NoEntryMissRun(_Run):
    """Defect: persistent I-cache blocks' first-miss charge is dropped."""

    def _fm_charge(self, count):
        return 0


@pytest.fixture
def cold(tmp_path, monkeypatch):
    """Isolated caches, no run cache, and an empty shared analysis."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    common.setup.cache_clear()
    warmup.clear_memory_cache()
    runcache.reset_stats()
    clear_shared_wcet()
    analyzer_mod.STATS.clear()
    yield
    common.setup.cache_clear()
    warmup.clear_memory_cache()
    clear_shared_wcet()


def _cnt():
    workload = get_workload("cnt", "tiny")
    return workload.program, common.setup("cnt", "tiny").dcache_bounds


def test_each_stall_is_solved_once_across_runtimes_and_cells(cold, monkeypatch):
    prep = common.setup("cnt", "tiny")
    clear_shared_wcet()
    analyzer_mod.STATS.clear()
    requested: set[int] = set()
    real_wcet = VISASpec.wcet

    def spy(self, program, freq_hz, dcache_bounds=None):
        requested.add(self.stall_cycles(freq_hz))
        return real_wcet(self, program, freq_hz, dcache_bounds)

    monkeypatch.setattr(VISASpec, "wcet", spy)
    run_pair(prep, prep.deadline_tight, INSTANCES)
    first = len(requested)
    # Both runtimes search the DVS table; together they need far more
    # than one stall count, yet each distinct one was analyzed once.
    assert first > 2
    assert analyzer_mod.STATS["passes"] == first
    run_pair(prep, 1.3 * prep.deadline_tight, INSTANCES)
    assert analyzer_mod.STATS["passes"] == len(requested)
    assert len(requested) <= len(DVSTable.xscale())


def test_runs_are_bit_identical_cold_and_warm(cold):
    prep = common.setup("cnt", "tiny")
    deadline = 1.2 * prep.deadline_tight
    clear_shared_wcet()
    cold_pair = run_pair(prep, deadline, INSTANCES, {7})
    warm_pair = run_pair(prep, deadline, INSTANCES, {7})
    assert warm_pair.visa_runs == cold_pair.visa_runs
    assert warm_pair.simple_runs == cold_pair.simple_runs
    assert [repr(r.completion_seconds) for r in warm_pair.visa_runs] == [
        repr(r.completion_seconds) for r in cold_pair.visa_runs
    ]


def test_runtime_wcet_matches_a_private_analyzer(cold):
    program, bounds = _cnt()
    config = RuntimeConfig(deadline=1.0, instances=1)
    runtime = SimpleFixedRuntime(
        get_workload("cnt", "tiny"), config, dcache_bounds=bounds
    )
    assert not hasattr(runtime, "analyzer")
    mine = VISASpec().analyzer(program)
    mine.dcache_bounds = bounds
    for setting in DVSTable.xscale():
        assert runtime.wcet_fn(setting.freq_hz) == mine.analyze(setting.freq_hz)


def test_caller_mutations_never_reach_shared_results(cold):
    program, bounds = _cnt()
    spec = VISASpec()
    shared = spec.wcet(program, 1e9, bounds)

    # A caller's analyzer, mutated the three ways callers do.
    mine = spec.analyzer(program)
    mine.dcache_bounds = [b + 3 for b in bounds]
    for forest in mine.loops.values():
        for loop in forest.by_header.values():
            loop.bound = max(0, loop.bound - 1)
    mine.run_cls = NoEntryMissRun
    mutated = mine.analyze(1e9)
    assert mutated != shared
    # Neither a warm stall nor a cold one picks the mutations up.
    assert spec.wcet(program, 1e9, bounds) == shared
    pristine = spec.analyzer(program)
    pristine.dcache_bounds = bounds
    assert spec.wcet(program, 250e6, bounds) == pristine.analyze(250e6)

    # The reverse: a warm shared analysis never masks a caller's defect.
    defect = spec.analyzer(program)
    defect.dcache_bounds = bounds
    defect.run_cls = NoEntryMissRun
    assert defect.analyze(1e9).total_cycles < shared.total_cycles


def test_padding_is_per_call(cold):
    program, bounds = _cnt()
    spec = VISASpec()
    padded = spec.wcet(program, 1e9, bounds)
    bare = spec.wcet(program, 1e9)
    assert [s.dmiss_bound for s in padded.subtasks] == list(bounds)
    assert [s.dmiss_bound for s in bare.subtasks] == [0] * len(bounds)
    # Each call returns a fresh object, so a caller may mutate its copy.
    padded.subtasks[0].dmiss_bound += 100
    assert spec.wcet(program, 1e9, bounds).subtasks[0].dmiss_bound == bounds[0]


def test_each_spec_gets_its_own_results(cold):
    program, bounds = _cnt()
    fast_memory = VISASpec(mem_stall_ns=40.0)
    default = VISASpec().wcet(program, 1e9, bounds)
    fast = fast_memory.wcet(program, 1e9, bounds)
    assert fast.stall == 40 and default.stall == 100
    assert fast.total_cycles < default.total_cycles
    assert VISASpec().wcet(program, 1e9, bounds) == default
    assert len(spec_mod._SHARED) == 2


def test_lru_stays_at_its_bound(cold):
    program = assemble(".text\nmain: nop\nhalt\n")
    limit = spec_mod._SHARED_MAX
    specs = [VISASpec(mem_stall_ns=float(n)) for n in range(1, limit + 6)]
    for spec in specs:
        spec.wcet(program, 1e9)
    assert len(spec_mod._SHARED) == limit
    keys = [key[0] for key in spec_mod._SHARED]
    assert keys == specs[-limit:]  # least recently used evicted first
    # A hit refreshes recency: the oldest survivor outlives the next miss.
    specs[-limit].wcet(program, 1e9)
    VISASpec(mem_stall_ns=1000.0).wcet(program, 1e9)
    assert specs[-limit] in [key[0] for key in spec_mod._SHARED]
    assert specs[-limit + 1] not in [key[0] for key in spec_mod._SHARED]


def test_entry_point_is_part_of_program_identity(cold):
    program = assemble(".text\nmain: nop\nalt: halt\n")
    other = dataclasses.replace(program, entry=program.symbols["alt"])
    assert program_digest(program) != program_digest(other)

    config = RuntimeConfig(deadline=1e-3, instances=1)
    table = DVSTable.xscale()
    assert runcache.run_key("visa", program, config, table) != runcache.run_key(
        "visa", other, config, table
    )

    spec = VISASpec()
    spec.wcet(program, 1e9)
    spec.wcet(other, 1e9)
    assert {key[1] for key in spec_mod._SHARED} == {
        program_digest(program), program_digest(other)
    }


def test_concurrent_callers_share_one_analysis(cold):
    program, bounds = _cnt()
    specs = [VISASpec(), VISASpec(mem_stall_ns=40.0)]
    freqs = [s.freq_hz for s in DVSTable.xscale()][::4]
    reference = {}
    for spec in specs:
        mine = spec.analyzer(program)
        mine.dcache_bounds = bounds
        for f in freqs:
            reference[spec, f] = mine.analyze(f)
    clear_shared_wcet()  # set-up's own analyses warmed it
    analyzer_mod.STATS.clear()
    mismatches: list[tuple] = []

    def worker(offset: int) -> None:
        pairs = list(reference)
        for spec, f in pairs[offset:] + pairs[:offset]:
            if spec.wcet(program, f, bounds) != reference[spec, f]:
                mismatches.append((spec, f))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert mismatches == []
    # Every (spec, stall) pair was analyzed exactly once among 6 threads.
    assert analyzer_mod.STATS["passes"] == len(reference)
    assert len(spec_mod._SHARED) == len(specs)

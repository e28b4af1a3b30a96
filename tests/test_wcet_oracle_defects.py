"""Seeded-unsoundness corpus for the differential WCET oracle.

Each test plants one deliberate soundness bug in the *static* analyzer —
the classes of mistake a WCET tool author actually makes — and asserts
that ``repro wcet diff`` (via :func:`repro.wcet.mc.diff.diff_program`)
flags it, naming the exact sub-tasks and ``static − mc`` gaps.  The
model-checking engine is always built from a pristine analyzer, so the
oracle side never inherits the defect.

The numbers are golden values: everything here is deterministic (fixed
workload scale, fixed input seed, shared pipeline recurrence), so an
unexplained change in a gap is itself a finding.  The planted hooks also
run in the analyzer's range pass, on lines in the stall: an analyzer
swept across the DVS table must be caught with the same gaps.
"""

from __future__ import annotations

import pytest

from repro.minicc import compile_source
from repro.visa.dvs import DVSTable
from repro.wcet import analyzer as analyzer_mod
from repro.wcet.analyzer import WCETAnalyzer, _Run
from repro.wcet.dcache_pad import measure_dcache_misses
from repro.wcet.mc.diff import diff_program
from repro.wcet.mc.engine import ModelCheckEngine
from repro.workloads.suite import get_workload


class DroppedDrainRun(_Run):
    """Defect: region exit reads the EX frontier, forgetting the MEM/WB
    drain — the final instructions' memory stage is never waited for."""

    def _finish(self, state):
        return state.timing.ex_free + 1


#: A single-path counted loop, where static == mc exactly.
EXACT_LOOP = (
    "void main() {\n"
    "  int i;\n"
    "  int acc;\n"
    "  acc = 0;\n"
    "  for (i = 0; i < 10; i = i + 1) { acc = acc + i; }\n"
    "  __out(acc);\n"
    "}\n"
)


class NoEntryMissRun(_Run):
    """Defect: persistent I-cache blocks are classified correctly but
    their one first-miss charge at scope entry is dropped."""

    def _fm_charge(self, count):
        return 0


@pytest.fixture(scope="module")
def cnt():
    """Shared (program, prepare, dcache bounds, pristine MC engine)."""
    w = get_workload("cnt", "tiny")
    program = w.program

    def prepare(machine):
        w.apply_inputs(machine, w.generate_inputs(0))

    bounds = measure_dcache_misses(program, prepare)
    pristine = WCETAnalyzer(program)
    pristine.dcache_bounds = list(bounds)
    engine = ModelCheckEngine(pristine)
    return program, prepare, bounds, engine


def _analyzer(program, bounds, run_cls=None) -> WCETAnalyzer:
    analyzer = WCETAnalyzer(program)
    analyzer.dcache_bounds = list(bounds)
    if run_cls is not None:
        analyzer.run_cls = run_cls
    return analyzer


def _flagged(report) -> dict[int, int]:
    """Flagged sub-task index -> static − mc gap (negative = under-bound)."""
    return {s.index: s.gap for s in report.subtasks if s.violations}


def test_baseline_is_sound(cnt):
    program, prepare, bounds, engine = cnt
    report = diff_program(
        program, prepare=prepare,
        analyzer=_analyzer(program, bounds), engine=engine,
    )
    assert report.ok
    assert _flagged(report) == {}
    # The oracle must also be *useful*: a real precision gap exists.
    assert report.gap_pct > 0


def test_dropped_drain_penalty_is_flagged():
    # cnt's static-vs-mc gap (~1 stall per sub-task) would mask the
    # small drain delta, so this defect is planted where the bound is
    # exact: a single-path counted loop, where static == mc and even a
    # one-cycle under-bound flips the verdict.
    program = compile_source(EXACT_LOOP)
    bounds = measure_dcache_misses(program)
    engine = ModelCheckEngine(_analyzer(program, bounds))

    baseline = diff_program(
        program, analyzer=_analyzer(program, bounds), engine=engine
    )
    assert baseline.ok
    assert [s.gap for s in baseline.subtasks] == [0]  # bound is exact

    report = diff_program(
        program,
        analyzer=_analyzer(program, bounds, DroppedDrainRun),
        engine=engine,
    )
    assert not report.ok
    assert _flagged(report) == {0: -1}
    # The exact bound equals the executed cycle count here, so the
    # defect is caught against reality as well as against the oracle.
    assert report.subtasks[0].violations == [
        "static 455 < mc 456",
        "static 455 < observed[simple] 456",
    ]


def test_missing_icache_entry_miss_is_flagged(cnt):
    program, prepare, bounds, engine = cnt
    report = diff_program(
        program, prepare=prepare,
        analyzer=_analyzer(program, bounds, NoEntryMissRun), engine=engine,
    )
    assert not report.ok
    # Every region loses its persistent-block first-miss prepay: 4-6
    # blocks x the 100-cycle stall, far below the exact bound.
    assert _flagged(report) == {0: -599, 1: -400, 2: -400, 3: -400, 4: -600}


def test_offbyone_loop_replication_is_flagged(cnt):
    program, prepare, bounds, engine = cnt
    analyzer = _analyzer(program, bounds)
    # Defect: every loop bound replicated one iteration short — the
    # classic <= vs < mistake in the replication count.
    for forest in analyzer.loops.values():
        for loop in forest.by_header.values():
            loop.bound = max(0, loop.bound - 1)
    report = diff_program(
        program, prepare=prepare, analyzer=analyzer, engine=engine
    )
    assert not report.ok
    # One missing iteration of each region's hot loop (~381 cycles; the
    # first region also loses a cold-cache iteration, ~480).
    assert _flagged(report) == {0: -480, 1: -381, 2: -381, 3: -381, 4: -381}


def test_zeroed_dmiss_padding_is_flagged(cnt):
    program, prepare, bounds, engine = cnt
    analyzer = _analyzer(program, bounds)
    analyzer.dcache_bounds = [0] * len(bounds)
    report = diff_program(
        program, prepare=prepare, analyzer=analyzer, engine=engine
    )
    assert not report.ok
    # Only sub-tasks whose D-miss pad exceeds the static-vs-mc pipeline
    # gap are caught (bounds [4, 2, 1, 1, 2] at stall 100 vs gap ~100):
    # the oracle's sensitivity is exactly the precision gap.
    assert _flagged(report) == {0: -399, 1: -100, 4: -100}
    # The under-bound is also against *observed* reality, not just mc.
    sub = report.subtasks[0]
    assert any("observed" in v for v in sub.violations)


def _swept(program, bounds, run_cls) -> WCETAnalyzer:
    """A defective analyzer swept up the DVS table from 100 MHz, so its
    1 GHz bound is an evaluation of its range pass; each swept bound
    equals a scalar pass of the same defect."""
    analyzer = _analyzer(program, bounds, run_cls)
    before = analyzer_mod.STATS["fallbacks"]
    for setting in DVSTable.xscale():
        scalar = _analyzer(program, bounds, run_cls).analyze(setting.freq_hz)
        assert analyzer.analyze(setting.freq_hz) == scalar
    assert analyzer_mod.STATS["fallbacks"] == before
    return analyzer


def test_dropped_drain_penalty_is_flagged_after_a_sweep():
    program = compile_source(EXACT_LOOP)
    bounds = measure_dcache_misses(program)
    engine = ModelCheckEngine(_analyzer(program, bounds))
    report = diff_program(
        program, analyzer=_swept(program, bounds, DroppedDrainRun),
        engine=engine,
    )
    assert _flagged(report) == {0: -1}


def test_missing_icache_entry_miss_is_flagged_after_a_sweep(cnt):
    program, prepare, bounds, engine = cnt
    report = diff_program(
        program, prepare=prepare,
        analyzer=_swept(program, bounds, NoEntryMissRun), engine=engine,
    )
    assert _flagged(report) == {0: -599, 1: -400, 2: -400, 3: -400, 4: -600}

"""Differential tests for the event-driven complex-core timing engine.

:meth:`ComplexCore.run` times the complex core with an event-driven
formulation of :meth:`ComplexCore.run_reference`'s per-cycle scans of
the issue queue, ROB, and LSQ: occupancy rings, a commit frontier pair,
and inlined branch predictors, all in generated block code
(:mod:`repro.isa.blockjit`).  The event engine is a pure reformulation
— no timing model change — so everything observable must stay
bit-identical to ``run_reference``:

* fuzz-level: on 200 randomized MiniC programs, a whole ``run()`` and a
  sequence of randomly budgeted segments (which end inside blocks and
  run truncated ones) must match ``run_reference`` driven with the same
  budgets exactly — every segment's result, the end state, *and* the
  final branch-predictor state (tables + global histories);
* edge-level: MMIO accesses off a hot loop, faults and watchdog
  arming/expiry must land at identical cycles with identical state,
  predictor state included (``tests/test_blockjit.py`` runs the same
  cases on both cores, whole and in short segments);
* guard-level: non-standard predictor geometries raise a typed
  :class:`SimulationError` (the event engine inlines the 2^16 geometry).
"""

import pytest

from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.ooo.core import ComplexCore

from tests.test_blockjit import (
    WHOLE,
    _assert_matches_reference,
    _cuts,
    _random_budgets,
)
from tests.test_cross_core_random import _program
from tests.test_fastexec import _snapshot

N_PROGRAMS = 200
CHUNK = 25

#: Loop iterations before an edge case's once-taken event fires.
WARM = 16


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep codegen-cache writes out of the developer's real cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


@pytest.mark.parametrize("chunk", range(N_PROGRAMS // CHUNK))
def test_event_matches_reference_on_random_programs(chunk):
    """Whole runs and randomly budgeted segments agree segment by
    segment: cycle counts, arch state, and predictor state."""
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        program = compile_source(_program(seed))
        for segments in (WHOLE, _random_budgets(seed)):
            timeline = _assert_matches_reference(
                program, ComplexCore, segments
            )
            assert timeline[-2][0] == "halt", seed
            assert "gshare" in timeline[-1]
        assert _cuts(program), seed



# -- seeded edge cases --------------------------------------------------------


def test_event_mmio_mid_trace_side_exit():
    """Once-taken branch to MMIO off a hot loop: console and cycles exact."""
    source = f"""
    main:
        li t0, 0xFFFF0000
        li t1, {WARM * 3}
        li t4, {WARM + 9}
    loop:
        addi t2, t2, 1
        add t3, t3, t2
        beq t2, t4, emit   # taken once, after the loop is warm
    back:
        bne t2, t1, loop
        halt
    emit:
        sw t3, 12(t0)      # CONSOLE_OUT off the hot path
        lw t5, 8(t0)       # CYCLE_COUNT: timing-visible load
        sw t5, 12(t0)
        b back
    """
    timeline = _assert_matches_reference(assemble(source), ComplexCore, WHOLE)
    assert timeline[0][0] == "halt"


def test_event_fault_mid_trace():
    """A DIV whose divisor hits zero inside a hot loop faults identically."""
    source = f"""
    main:
        li t1, {WARM * 3}
        li t4, {WARM + 9}
    loop:
        addi t2, t2, 1
        sub t5, t4, t2
        div t3, t1, t5     # divisor reaches zero inside the loop body
        bne t2, t1, loop
        halt
    """
    timeline = _assert_matches_reference(assemble(source), ComplexCore, WHOLE)
    assert timeline[0] == ("fault", "integer division by zero")


def test_event_watchdog_arming_and_expiry():
    """Watchdog armed via MMIO fires at the same cycle on both engines."""
    source = """
    main:
        li t0, 0xFFFF0000
        li t1, 150
        sw t1, 0(t0)       # WATCHDOG_COUNT = 150 cycles
        li t2, 1
        sw t2, 4(t0)       # WATCHDOG_CTRL: enable
    loop:
        addi t3, t3, 1
        b loop
    """
    timeline = _assert_matches_reference(
        assemble(source), ComplexCore, WHOLE, masked=False
    )
    assert timeline[0][0] == "watchdog"


# -- predictor geometry guard -------------------------------------------------

def test_nonstandard_predictor_geometry_raises():
    """The event engine inlines the 2^16 geometry; other masks are refused
    with a typed error before any state changes, on whole and bounded
    runs alike."""
    program = compile_source(_program(0))
    for predictor in ("gshare", "indirect"):
        machine = Machine(program)
        core = ComplexCore(machine)
        getattr(core, predictor).mask = 0xFF  # non-standard geometry
        before = _snapshot(core, machine)
        with pytest.raises(SimulationError, match="2\\^16"):
            core.run()
        with pytest.raises(SimulationError, match="2\\^16"):
            core.run(max_instructions=10)
        assert _snapshot(core, machine) == before, predictor
        assert not program._blockjit_tables
        # The reference still models any geometry.
        assert core.run_reference().reason == "halt"

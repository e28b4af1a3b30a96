"""Differential tests for the event-driven complex-core timing engine.

:meth:`ComplexCore.run` times the complex core with an event-driven
formulation of :meth:`ComplexCore.run_reference`'s per-cycle scans of
the issue queue, ROB, and LSQ: occupancy rings, a commit frontier pair,
and inlined branch predictors, on both the pure interpreter
(:mod:`repro.pipelines.ooo.event`) and generated block code
(:mod:`repro.isa.blockjit`).  The event engine is a pure reformulation
— no timing model change — so everything observable must stay
bit-identical to ``run_reference``:

* fuzz-level: on 200 randomized MiniC programs, block code (a full
  ``run()``) and the interpreter loop must match ``run_reference``
  exactly — end state, cycle counts, *and* final branch-predictor state
  (tables + global histories);
* edge-level: MMIO accesses off a hot loop, faults and watchdog
  arming/expiry must land at identical cycles with identical state;
* guard-level: non-standard predictor geometries raise a typed
  :class:`SimulationError` (the event engine inlines the 2^16 geometry).
"""

import pytest

from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.ooo.core import ComplexCore
from repro.pipelines.ooo.event import run_interp_event

from tests.test_cross_core_random import _program
from tests.test_fastexec import _snapshot

N_PROGRAMS = 200
CHUNK = 25

#: Fast paths checked against ``run_reference``: generated block code
#: (what a full ``run()`` takes) and the event interpreter loop.
PATHS = ("block", "interp")

#: Loop iterations before an edge case's once-taken event fires.
WARM = 16


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep codegen-cache writes out of the developer's real cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def _outcome(core, machine, result):
    return (
        result.reason,
        result.start_cycle,
        result.end_cycle,
        result.instructions,
        result.exception_cycle,
        _snapshot(core, machine),
        core.gshare.dump_state(),
        core.indirect.dump_state(),
    )


def _reference(program):
    machine = Machine(program)
    core = ComplexCore(machine)
    result = core.run_reference()
    return _outcome(core, machine, result)


def _run_path(core, path):
    if path == "block":
        return core.run()
    return run_interp_event(core)


def _event_run(program, path, masked=True):
    machine = Machine(program)
    machine.mmio.exceptions_masked = masked
    core = ComplexCore(machine)
    result = _run_path(core, path)
    return _outcome(core, machine, result), machine


# -- 200-program differential fuzz, both paths --------------------------------


@pytest.mark.parametrize("chunk", range(N_PROGRAMS // CHUNK))
def test_event_matches_reference_on_random_programs(chunk):
    """Cycle counts, arch state, and predictor state agree everywhere."""
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        program = compile_source(_program(seed))
        ref = _reference(program)
        for path in PATHS:
            event, _ = _event_run(program, path)
            assert event == ref, (seed, path)


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
    program = assemble(source)
    ref_machine = Machine(program)
    ref_core = ComplexCore(ref_machine)
    ref = _outcome(ref_core, ref_machine, ref_core.run_reference())
    for path in PATHS:
        event, machine = _event_run(program, path)
        assert event == ref, path
        assert list(machine.mmio.console) == list(ref_machine.mmio.console)


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
    program = assemble(source)
    outcomes = []
    for path in ("reference", *PATHS):
        machine = Machine(program)
        core = ComplexCore(machine)
        with pytest.raises(SimulationError) as exc_info:
            if path == "reference":
                core.run_reference()
            else:
                _run_path(core, path)
        outcomes.append(
            (
                str(exc_info.value),
                _snapshot(core, machine),
                core.gshare.dump_state(),
                core.indirect.dump_state(),
            )
        )
    assert all(out == outcomes[0] for out in outcomes[1:])


def test_event_watchdog_arming_and_expiry():
    """Watchdog armed via MMIO fires at the same cycle on every path."""
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
    program = assemble(source)
    ref_machine = Machine(program)
    ref_machine.mmio.exceptions_masked = False
    ref_core = ComplexCore(ref_machine)
    ref = _outcome(ref_core, ref_machine, ref_core.run_reference())
    assert ref[0] == "watchdog"
    for path in PATHS:
        event, _ = _event_run(program, path, masked=False)
        assert event == ref, path


# -- predictor geometry guard -------------------------------------------------


def test_nonstandard_predictor_geometry_raises():
    """The event engine inlines the 2^16 geometry; other masks are refused
    with a typed error before any state changes, on full and bounded
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

"""Differential tests for the event-driven complex-core timing engine.

:meth:`ComplexCore.run` times the complex core with an event-driven
formulation of :meth:`ComplexCore.run_reference`'s per-cycle scans of
the issue queue, ROB, and LSQ: occupancy rings, a commit frontier pair,
and inlined branch predictors, on both the pure interpreter
(:mod:`repro.pipelines.ooo.event`) and the block/trace JIT tiers
(codegen in :mod:`repro.isa.blockjit`).  The event engine is a pure
reformulation — no timing model change — so everything observable must
stay bit-identical to ``run_reference``:

* fuzz-level: on 200 randomized MiniC programs, ``run()`` under every
  JIT tier (``off``/``block``/``trace``) must match ``run_reference``
  exactly — end state, cycle counts, *and* final branch-predictor state
  (tables + global histories);
* edge-level: MMIO accesses, faults, watchdog arming/expiry, and
  mid-trace side exits must land at identical cycles with identical
  state;
* guard-level: non-standard predictor geometries raise a typed
  :class:`SimulationError` (the event engine inlines the 2^16 geometry).
"""

import pytest

from repro.errors import SimulationError
from repro.isa import blockjit, tracejit
from repro.isa.assembler import assemble
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.ooo.core import ComplexCore

from tests.test_cross_core_random import _program
from tests.test_fastexec import _snapshot

N_PROGRAMS = 200
CHUNK = 25

TIERS = ("off", "block", "trace")

HOT = tracejit.HOT_THRESHOLD


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep codegen-cache writes out of the developer's real cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_JIT_TIER", raising=False)


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


def _event_run(program, tier, **kwargs):
    machine = Machine(program)
    core = ComplexCore(machine)
    with blockjit.tier_override(tier):
        result = core.run(**kwargs)
    return _outcome(core, machine, result), machine


# -- 200-program differential fuzz, whole tier matrix -------------------------


@pytest.mark.parametrize("chunk", range(N_PROGRAMS // CHUNK))
def test_event_matches_reference_on_random_programs(chunk):
    """Cycle counts, arch state, and predictor state agree everywhere."""
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        program = compile_source(_program(seed))
        ref = _reference(program)
        for tier in TIERS:
            event, _ = _event_run(program, tier)
            assert event == ref, (seed, tier)


# -- seeded edge cases --------------------------------------------------------


def test_event_mmio_mid_trace_side_exit():
    """Once-taken branch to MMIO mid-trace: console and cycles exact."""
    source = f"""
    main:
        li t0, 0xFFFF0000
        li t1, {HOT * 3}
        li t4, {HOT + 9}
    loop:
        addi t2, t2, 1
        add t3, t3, t2
        beq t2, t4, emit   # taken once, after the loop trace is hot
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
    for tier in TIERS:
        event, machine = _event_run(program, tier)
        assert event == ref, tier
        assert list(machine.mmio.console) == list(ref_machine.mmio.console)
    assert any(t.traces_meta for t in program._blockjit_tables.values())


def test_event_fault_mid_trace():
    """A DIV whose divisor hits zero mid-trace faults identically."""
    source = f"""
    main:
        li t1, {HOT * 3}
        li t4, {HOT + 9}
    loop:
        addi t2, t2, 1
        sub t5, t4, t2
        div t3, t1, t5     # divisor reaches zero inside the trace
        bne t2, t1, loop
        halt
    """
    program = assemble(source)
    outcomes = []
    for tier in ("reference", *TIERS):
        machine = Machine(program)
        core = ComplexCore(machine)
        with pytest.raises(SimulationError) as exc_info:
            if tier == "reference":
                core.run_reference()
            else:
                with blockjit.tier_override(tier):
                    core.run()
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
    """Watchdog armed via MMIO fires at the same cycle on every tier."""
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
    for tier in TIERS:
        machine = Machine(program)
        machine.mmio.exceptions_masked = False
        core = ComplexCore(machine)
        with blockjit.tier_override(tier):
            result = core.run()
        assert _outcome(core, machine, result) == ref, tier


def test_event_mid_trace_side_exit_counted():
    """A hot loop with a once-diverging branch side-exits the trace and
    the side-exit accounting (completions, per-pc counts) is populated."""
    source = f"""
    main:
        li t1, {HOT * 3}
        li t4, {HOT + 9}
    loop:
        addi t2, t2, 1
        beq t2, t4, skip   # diverges once, mid-trace
        add t3, t3, t2
    skip:
        bne t2, t1, loop
        halt
    """
    program = assemble(source)
    ref = _reference(program)
    event, _ = _event_run(program, "trace")
    assert event == ref
    summaries = [
        t.trace_summary()
        for t in program._blockjit_tables.values()
        if t.tier == "trace" and t.traces_meta
    ]
    assert summaries
    total = {
        "calls": sum(s["calls"] for s in summaries),
        "completions": sum(s["trace_completions"] for s in summaries),
        "side_exits": sum(s["side_exits"] for s in summaries),
    }
    assert total["calls"] > 0
    assert total["completions"] > 0  # the trace usually runs to its end
    assert total["side_exits"] >= 1  # ... and side-exited at least once
    assert all(s["side_exit_rate"] < 1.0 for s in summaries)


# -- predictor geometry guard -------------------------------------------------


def test_nonstandard_predictor_geometry_raises():
    """The event engine inlines the 2^16 geometry; other masks are refused
    with a typed error before any state changes, on every tier."""
    program = compile_source(_program(0))
    for predictor in ("gshare", "indirect"):
        machine = Machine(program)
        core = ComplexCore(machine)
        getattr(core, predictor).mask = 0xFF  # non-standard geometry
        before = _snapshot(core, machine)
        for tier in TIERS:
            with blockjit.tier_override(tier):
                with pytest.raises(SimulationError, match="2\\^16"):
                    core.run()
                with pytest.raises(SimulationError, match="2\\^16"):
                    core.run(max_instructions=10)
        assert _snapshot(core, machine) == before, predictor
        assert not program._blockjit_tables
        # The reference still models any geometry.
        assert core.run_reference().reason == "halt"

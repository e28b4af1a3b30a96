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
* edge-level: MMIO accesses off a hot loop, faults, ALU results that
  leave the 32-bit range, and watchdog arming/expiry must land at
  identical cycles with identical state, predictor state included
  (``tests/test_blockjit.py`` runs the MMIO, fault and watchdog cases
  on both cores, whole and in short segments);
* params-level: the fuzz programs agree with ``run_reference`` on the
  non-default geometries ``visa/smt.py`` runs and on a ROB and IQ
  smaller than a full block (the block cap keeps the batched occupancy
  rings exact);
* rebase-level: a store-miss burst that runs the bus hundreds of
  thousands of cycles ahead of commit, and the 200-program fuzz with the
  width maps' headroom (``blockjit._SPAN``) cut to one cycle so every
  run rebases its timing origin many times, agree with
  ``run_reference``;
* guard-level: non-standard predictor geometries raise a typed
  :class:`SimulationError` (the event engine inlines the 2^16 geometry).
"""

from functools import partial

import pytest

from repro.errors import SimulationError
from repro.isa import blockjit
from repro.isa.assembler import assemble
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.ooo.core import ComplexCore, OOOParams
from repro.visa.smt import SMTConfig, partitioned_params

from tests.test_blockjit import (
    BOUNDED,
    WHOLE,
    _armed,
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

#: Complex-core geometries other than the default: the real-time
#: thread's share with 1 and 16 SMT background threads (the latter ROB 7,
#: IQ 4, LSQ 4), and a ROB and IQ smaller than a full block.
OTHER_PARAMS = {
    "smt1": partitioned_params(OOOParams(), SMTConfig(1)),
    "smt16": partitioned_params(OOOParams(), SMTConfig(16)),
    "rob8-iq4": OOOParams(rob_entries=8, iq_entries=4),
}

#: Fuzz programs run on each of :data:`OTHER_PARAMS`.
N_PARAMS_PROGRAMS = 30

#: Fewest timing-origin rebases a whole fuzz run makes with one cycle of
#: width-map headroom.
MIN_REBASES = 5

#: Segment budget of the store-miss burst's bounded run.
BURST_SEGMENT = 97

#: 6,000 stores, every other one to a new D-cache line (each miss holds
#: the bus from its commit, which does not wait for it), then 400 load
#: misses that queue behind the bus.
STORE_MISS_BURST = """
main:
    li t0, 0x10000000
    li t1, 6000
stores:
    sw t1, 0(t0)
    addi t0, t0, 32
    addi t1, t1, -1
    bne t1, zero, stores
    li t0, 0x10100000
    li t1, 400
loads:
    lw t2, 0(t0)
    add t3, t3, t2
    addi t0, t0, 64
    addi t1, t1, -1
    bne t1, zero, loads
    halt
"""


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


@pytest.mark.parametrize("name", sorted(OTHER_PARAMS))
def test_event_matches_reference_with_other_params(name):
    """Non-default geometries agree whole and in randomly budgeted
    segments; blocks never outgrow the smallest occupancy ring."""
    core_cls = partial(ComplexCore, params=OTHER_PARAMS[name])
    for seed in range(N_PARAMS_PROGRAMS):
        program = compile_source(_program(seed))
        for segments in (WHOLE, _random_budgets(seed)):
            timeline = _assert_matches_reference(program, core_cls, segments)
            assert timeline[-2][0] == "halt", seed
        params = OTHER_PARAMS[name]
        cap = min(params.rob_entries, params.iq_entries, params.lsq_entries)
        for table in program._blockjit_tables.values():
            assert max(length for _, length in table.blocks.values()) <= cap


@pytest.mark.parametrize("freq_hz", [1e9, 3e9], ids=["1GHz", "3GHz"])
def test_store_miss_burst_rebases_exactly(freq_hz):
    """The bus runs far ahead of commit (bf - lc reaches hundreds of
    thousands of cycles), so the width maps must reach bf, not just one
    block past lc; whole and in 97-instruction segments."""
    program = assemble(STORE_MISS_BURST)
    core_cls = partial(ComplexCore, freq_hz=freq_hz)
    whole = _assert_matches_reference(program, core_cls, WHOLE)
    assert whole[0][0] == "halt"
    assert whole[0][2] > 300_000 * freq_hz / 1e9
    bounded = _assert_matches_reference(
        program, core_cls, (BURST_SEGMENT,) * 300
    )
    assert bounded[-2][0] == "halt"


@pytest.mark.parametrize("chunk", range(N_PROGRAMS // CHUNK))
def test_event_matches_reference_across_rebases(chunk, monkeypatch):
    """The 200-program fuzz with one cycle of width-map headroom: the
    timing origin moves many times per run, and every segment and the
    end state still match, with the watchdog masked and armed."""
    monkeypatch.setattr(blockjit, "_SPAN", 1)
    rebases = []
    rebase = blockjit._ooo_rebase

    def counted(*args):
        rebases.append(args)
        return rebase(*args)

    monkeypatch.setattr(blockjit, "_ooo_rebase", counted)
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        program = compile_source(_program(seed))
        for segments in (WHOLE, _random_budgets(seed)):
            del rebases[:]
            timeline = _assert_matches_reference(
                program, ComplexCore, segments
            )
            assert timeline[-2][0] == "halt", seed
            if segments is WHOLE:
                assert len(rebases) >= MIN_REBASES, seed
                end_cycle = timeline[0][2]
        # Armed to expire halfway: the watchdog limit moves with the
        # origin.
        armed = _assert_matches_reference(
            program, ComplexCore, WHOLE, masked=False,
            setup=_armed(end_cycle // 2),
        )
        assert armed[0][0] == "watchdog", seed


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


def test_event_alu_results_wrap_to_32_bits():
    """Loop-carried values (never constant-folded) overflow 32 bits in
    add, sub, mul, shift, nor, xor, ori and div results every iteration;
    block code, which wraps most of them only after a range test, must
    end in the reference's registers whole and in short segments."""
    source = """
    main:
        li t1, 40
        lui t0, 0x7fff
    loop:
        addi t0, t0, 0x7000
        add t2, t0, t0
        sub t3, t2, t0
        mul t4, t0, t1
        sll t5, t0, 3
        srlv t6, t4, t1
        nor t7, t0, t2
        xor s0, t4, t5
        ori s1, t4, 0x8001
        div s2, t4, t1
        addi t1, t1, -1
        bne t1, zero, loop
        halt
    """
    program = assemble(source)
    for segments in (WHOLE, BOUNDED):
        timeline = _assert_matches_reference(program, ComplexCore, segments)
        assert timeline[-2][0] == "halt"


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

"""Differential tests for the basic-block compiler (:mod:`repro.isa.blockjit`).

Generated block code is each core's only fast path: ``run()`` dispatches
one generated Python function per basic block, and a segment that must
stop inside a block (an instruction budget, or an in-order breakpoint
that is not a block leader) runs a truncated copy of that block
(:meth:`~repro.isa.blockjit.BlockTable.cut`).  These tests pin block
code to ``run_reference``:

* fuzz-level: on 200 randomized MiniC programs, the in-order core run
  whole, in randomly budgeted segments, and with random interior
  breakpoints (with and without a budget) must match ``run_reference``
  driven with the same budgets and breakpoints, bit for bit — every
  segment's result and the end state (``tests/test_ooo_event.py`` runs
  the same fuzz on the complex core);
* edge-level: block exits at MMIO accesses, faults, flush-window
  breakpoints, checkpoint (sub-task) boundaries, and watchdog expiry
  must leave identical state at identical cycles — on the complex core
  including branch-predictor state — in a whole run and in short
  bounded segments;
* cut-level: a truncated block is compiled once per ``(pc, n)``, kept in
  memory, and never written to the codegen cache;
* cache-level: the on-disk codegen cache round-trips (hit/miss/store
  counters observable through :data:`runcache.STATS`), and a damaged
  entry is a counted miss that rebuilds, never an error;
* exit-level: the watchdog fires after every instruction of a block in
  turn, and every fault kind the shared exit epilogue serves is raised
  at several positions in it, each matching ``run_reference`` in full;
* clamp-level: hand-written cases that need the timing clamps block
  code keeps (a load used at distance 1, a program that writes r0)
  match ``run_reference`` whole, bounded and with the watchdog armed;
* codegen-level: the emitted source of every workload program is pinned
  by a golden digest and held to a size budget, and a cold table build
  stays memory-bounded.
"""

import hashlib
import marshal
import random
import tracemalloc

import pytest

from repro.errors import SimulationError
from repro.isa import blockjit
from repro.isa.assembler import assemble
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.inorder import InOrderCore
from repro.pipelines.ooo.core import ComplexCore
from repro.snapshot import runcache
from repro.visa.spec import VISASpec
from repro.workloads import get_workload
from repro.workloads.suite import EXTRA_WORKLOAD_NAMES, WORKLOAD_NAMES

from tests.test_cross_core_random import _program
from tests.test_fastexec import _snapshot

N_PROGRAMS = 200
CHUNK = 25

#: sha256 over the emitted per-block source (with start pc and length) of
#: all 16 (workload, scale) programs on both engines, re-recorded when
#: OOO block code moved to list width maps, batched occupancy rings and
#: range-tested ALU wraps (``CODEGEN_VERSION`` 6).  Any codegen change
#: must bump ``CODEGEN_VERSION`` and re-record this digest.
CODEGEN_SHA256 = (
    "e4bf92ec96d0d44d67d641bb1d8b0e208677185be5cd83e267a2710bf0b46944"
)

BOTH_CORES = pytest.mark.parametrize(
    "core_cls", [InOrderCore, ComplexCore], ids=["inorder", "ooo"]
)

#: Budget of the bounded variant of each edge case: short and prime, so
#: segments end at varied offsets inside blocks.
SEGMENT = 3

#: Most segments one timeline runs (every case halts, faults or hits
#: its watchdog well before).
MAX_SEGMENTS = 5000

#: A whole run: one segment with no budget.
WHOLE = (None,)

#: Segment budgets of the bounded edge cases.
BOUNDED = (SEGMENT,) * MAX_SEGMENTS


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep codegen-cache writes out of the developer's real cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def _state(core, machine):
    """Observable end state, plus the caches' LRU stamps and, on the
    complex core, predictor state."""
    state = _snapshot(core, machine)
    state["lru"] = [
        (cache._tick, [dict(ways) for ways in cache._sets])
        for cache in (machine.icache, machine.dcache)
    ]
    if isinstance(core, ComplexCore):
        state["gshare"] = core.gshare.dump_state()
        state["indirect"] = core.indirect.dump_state()
    return state


def _timeline(program, core_cls, method, budgets=WHOLE, breaks=None,
              masked=True, setup=None):
    """Drive a fresh core with ``method`` (``"run"`` or
    ``"run_reference"``), one segment per entry of ``budgets``.

    ``setup``, if given, receives the fresh machine before the run.
    Returns ``(timeline, machine)``: one entry per segment (its result
    and the pc after it, or the message of the fault that ended it),
    then the end state.  Stops at halt, a fault, or the watchdog; with
    ``setup`` given, a watchdog exit masks exceptions and the remaining
    segments run on, as VISA's recovery continues after one.
    """
    machine = Machine(program)
    machine.mmio.exceptions_masked = masked
    if setup is not None:
        setup(machine)
    core = core_cls(machine)
    run = getattr(core, method)
    extra = {} if breaks is None else {"break_addrs": breaks}
    timeline: list = []
    for budget in budgets:
        try:
            r = run(max_instructions=budget, **extra)
        except SimulationError as exc:
            timeline.append(("fault", str(exc)))
            break
        timeline.append((
            r.reason, r.start_cycle, r.end_cycle, r.instructions,
            r.exception_cycle, core.state.pc,
        ))
        if r.reason == "watchdog" and setup is not None:
            machine.mmio.exceptions_masked = True
        elif r.reason not in ("limit", "breakpoint"):
            break
    timeline.append(_state(core, machine))
    return timeline, machine


def _assert_matches_reference(program, core_cls, budgets, breaks=None,
                              masked=True, setup=None):
    """Block code and ``run_reference`` agree segment by segment,
    console output (with cycle stamps) included; returns the timeline."""
    block, block_machine = _timeline(
        program, core_cls, "run", budgets, breaks, masked, setup
    )
    ref, ref_machine = _timeline(
        program, core_cls, "run_reference", budgets, breaks, masked, setup
    )
    assert block == ref
    assert list(block_machine.mmio.console) == list(ref_machine.mmio.console)
    return block


def _assert_whole_and_bounded(program, core_cls, masked=True, setup=None):
    """:func:`_assert_matches_reference` on a whole run and in
    ``SEGMENT``-instruction segments; returns the whole-run timeline."""
    bounded = _assert_matches_reference(
        program, core_cls, BOUNDED, masked=masked, setup=setup
    )
    assert len(bounded) > 2  # the bounded variant really was segmented
    return _assert_matches_reference(
        program, core_cls, WHOLE, masked=masked, setup=setup
    )


def _cuts(program):
    """Truncated blocks compiled so far, over all of ``program``'s tables."""
    return sum(len(t.cuts) for t in program._blockjit_tables.values())


# -- 200-program differential fuzz -------------------------------------------


def _interior_addrs(program):
    """Addresses strictly inside a static block (never block leaders)."""
    return [
        start + 4 * k
        for start, insts in blockjit._walk_blocks(program)
        for k in range(1, len(insts))
    ]


def _random_budgets(seed):
    """Segment budgets for fuzz program ``seed``: 0 and 1 first, then
    uniform in 0..500 (most end inside a block)."""
    rng = random.Random(seed)
    return [0, 1, *(rng.randint(0, 500) for _ in range(MAX_SEGMENTS))]


@pytest.mark.parametrize("chunk", range(N_PROGRAMS // CHUNK))
def test_blockjit_matches_reference_on_random_programs(chunk):
    """In-order runs whole, in randomly budgeted segments, and stopped
    at random interior breakpoints with and without a budget agree with
    ``run_reference`` segment by segment."""
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        program = compile_source(_program(seed))
        for segments in (WHOLE, _random_budgets(seed)):
            timeline = _assert_matches_reference(
                program, InOrderCore, segments
            )
            assert timeline[-2][0] == "halt", seed
        rng = random.Random(N_PROGRAMS + seed)
        breaks = frozenset(rng.sample(_interior_addrs(program), 6))
        for segments in (WHOLE * MAX_SEGMENTS, (37,) * MAX_SEGMENTS):
            timeline = _assert_matches_reference(
                program, InOrderCore, segments, breaks
            )
            assert timeline[-2][0] == "halt", seed
        # Budgets and breakpoints really did end segments inside blocks.
        assert _cuts(program), seed


# -- block exits at MMIO, fault, flush, checkpoint, watchdog boundaries -------


@BOTH_CORES
def test_mmio_mid_block_exits(core_cls):
    """MMIO loads/stores mid-block: values *and* device-visible cycles."""
    source = """
    main:
        li t0, 0xFFFF0000
        addi t1, zero, 5
        addi t2, zero, 7
        add t3, t1, t2
        sw t3, 16(t0)      # CONSOLE_OUT mid straight-line run
        lw t4, 8(t0)       # CYCLE_COUNT: timing-visible load
        sw t4, 16(t0)
        addi t5, t4, 1
        sw t5, 16(t0)
        halt
    """
    _assert_whole_and_bounded(assemble(source), core_cls)


@BOTH_CORES
def test_fault_mid_block_state(core_cls):
    """A faulting DIV mid-block raises identically with identical state."""
    source = """
    main:
        addi t0, zero, 9
        addi t1, zero, 3
        add t2, t0, t1
        div t3, t2, zero   # faults mid straight-line run
        addi t4, zero, 1
        halt
    """
    timeline = _assert_whole_and_bounded(assemble(source), core_cls)
    assert timeline[-2] == ("fault", "integer division by zero")


def _mark_breaks(program):
    """Breakpoints at the sub-task marks after the first: the flush and
    checkpoint windows, all block leaders (``safe_breaks``)."""
    return frozenset(sorted(program.subtask_marks)[1:])


def test_flush_window_breakpoint_parity():
    """``break_addrs`` at sub-task marks (the flush/checkpoint windows)."""
    program = get_workload("srt", "tiny").program
    breaks = _mark_breaks(program)
    timeline = _assert_matches_reference(
        program, InOrderCore, WHOLE * 200, breaks
    )
    assert timeline[0][0] == "breakpoint"
    assert timeline[-2][0] == "halt"


def test_unsafe_breakpoints_still_match():
    """Arbitrary break addresses (not block leaders) stay exact."""
    program = compile_source(_program(3))
    program._blockjit_tables.clear()
    target = program.entry + 8
    timeline = _assert_matches_reference(
        program, InOrderCore, WHOLE, frozenset({target})
    )
    assert timeline[0][0] == "breakpoint"
    assert _cuts(program) == 1  # the entry block, cut before ``target``


@BOTH_CORES
def test_watchdog_expiry_mid_block(core_cls):
    """Watchdog fires at the same cycle with the same state."""
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
    timeline = _assert_whole_and_bounded(
        assemble(source), core_cls, masked=False
    )
    assert timeline[0][0] == "watchdog"


# -- hot loops with a once-taken edge event -----------------------------------
#
# Each program below runs one loop WARM times before the edge event
# fires, so the event lands on block code that has been dispatched many
# times already and must exit its block with state bit-identical to
# ``run_reference``.

WARM = 16


@BOTH_CORES
def test_mmio_mid_trace_side_exit(core_cls):
    """A once-taken branch to MMIO off a hot loop: console and cycles exact."""
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
    _assert_whole_and_bounded(assemble(source), core_cls)


@BOTH_CORES
def test_fault_mid_trace_side_exit(core_cls):
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
    timeline = _assert_whole_and_bounded(assemble(source), core_cls)
    assert timeline[-2] == ("fault", "integer division by zero")


def test_flush_window_breakpoint_tier_matrix():
    """Sub-task-mark breakpoints stay exact when whole and bounded
    segments alternate.

    Mark-aligned breakpoints are block boundaries (``safe_breaks``), so
    unbudgeted segments dispatch whole blocks only; budgeted ones cut
    the block their budget ends in.  In-order segments share
    pipeline-timing state, so an alternating timeline must reproduce
    the reference's, driven the same way, exactly.
    """
    program = get_workload("srt", "tiny").program
    breaks = _mark_breaks(program)
    for first, second in ((None, SEGMENT), (SEGMENT, None)):
        timeline = _assert_matches_reference(
            program, InOrderCore, (first, second) * MAX_SEGMENTS, breaks
        )
        reasons = {segment[0] for segment in timeline[:-1]}
        assert {"breakpoint", "limit", "halt"} <= reasons, first


@BOTH_CORES
def test_watchdog_armed_mid_trace(core_cls):
    """Arming the watchdog from a store inside a hot loop fires exactly.

    Block code reloads the watchdog state after every MMIO store, so the
    control write that flips it on must hand over to the per-instruction
    expiry checks at the exact cycle the oracle sees.
    """
    source = f"""
    main:
        li t0, 0xFFFF0000
        li t3, 200
        sw t3, 0(t0)       # preset WATCHDOG_COUNT; CTRL still 0
        li t1, 999
        li t4, {WARM + 9}
    loop:
        addi t2, t2, 1
        slt t5, t4, t2     # 0 while the loop warms up, then 1
        sw t5, 4(t0)       # WATCHDOG_CTRL write every iteration
        bne t2, t1, loop
        halt
    """
    timeline = _assert_whole_and_bounded(
        assemble(source), core_cls, masked=False
    )
    assert timeline[0][0] == "watchdog"


@BOTH_CORES
def test_store_to_text_mid_trace(core_cls):
    """A text-range store reached from a hot loop faults exactly.

    The simulator treats text-range data stores as faults (the write
    would invalidate generated code).  Block code leaves the state
    ``run_reference`` leaves, the pipeline's view of the faulting store
    included: in-order, ``now`` stops at the previous instruction; on
    the complex core the store counts in the pipeline events it passed.
    """
    source = f"""
    main:
        li t1, {WARM * 3}
        li t4, {WARM + 9}
        lui t0, 0x0040     # text segment base (0x400000)
    loop:
        addi t2, t2, 1
        beq t2, t4, poke   # taken once the loop is warm
    back:
        bne t2, t1, loop
        halt
    poke:
        sw t2, 0(t0)       # store into the text range: faults
        b back
    """
    timeline = _assert_whole_and_bounded(assemble(source), core_cls)
    message = "data access inside text segment at 0x400000"
    assert timeline[0] == ("fault", message)


# -- an exit at every instruction index -----------------------------------
#
# Every mid-block exit leaves through the block's shared epilogue, which
# reads the state at exit position k from per-block tables.  The body
# block below is a 21-instruction dependency chain (so each instruction
# commits in a cycle of its own on the complex core too) with a DIV, a
# data store and load, an MMIO load and store, and an indirect jump
# last; the preamble block sets up its base registers.

_EXIT_PREAMBLE = """
main:
    li t0, 0xFFFF0000      # MMIO base
    lui t6, 0x1000         # data buffer (DATA_BASE)
    lui t7, 0x0040         # text segment base
    la t4, done
    addi t2, zero, -4
    itof f1, t2            # a negative float
    addi t1, zero, 1000
    addi t2, zero, 7
    div t5, t1, t2         # slow: the body waits for it
    j body
body:
"""

_EXIT_BODY = [
    "addi s0, t5, 12",
    "sll s1, s0, 4",
    "mul s1, s1, s0",
    "div s2, s1, s0",       # DIV
    "andi s2, s2, 60",      # a word offset into buf
    "add s3, t6, s2",
    "sw s2, 0(s3)",         # data store
    "lw s4, 0(s3)",         # data load (forwarded from the store)
    "addi s4, s4, 1",
    "sub s5, s4, s4",
    "add s5, s5, t0",
    "lw s6, 8(s5)",         # MMIO load (CYCLE_COUNT)
    "sw s6, 12(s5)",        # MMIO store (CONSOLE_OUT)
    "rem s7, s6, s0",
    "addi s7, s7, 3",
    "xor s7, s7, s4",
    "sll s7, s7, 2",
    "sw s7, 4(s3)",
    "mul t8, s7, zero",     # completes after the store it follows
    "add t8, t8, t4",
    "jr t8",                # the block's last instruction
]

_EXIT_TAIL = """
done:
    halt
.data
buf: .space 64
"""


def _exit_program(body):
    return assemble(
        _EXIT_PREAMBLE + "\n".join(f"    {line}" for line in body)
        + _EXIT_TAIL
    )


def _armed(expiry):
    """Setup arming the watchdog to expire at cycle ``expiry``."""
    def setup(machine):
        machine.mmio.exceptions_masked = False
        machine.mmio.watchdog_set(expiry, 0)
        machine.mmio.watchdog_ctrl(1, 0)
    return setup


@BOTH_CORES
def test_watchdog_exit_at_every_index(core_cls):
    """Sweeping the watchdog expiry fires it after each instruction of
    the body block in turn; every exit, and the run that continues from
    it to the halt, matches ``run_reference`` whole and in
    ``SEGMENT``-instruction segments."""
    program = _exit_program(_EXIT_BODY)
    first = (program.symbols["body"] - program.entry) // 4
    hit = set()
    expiry = 0
    while True:
        setup = _armed(expiry)
        _assert_matches_reference(
            program, core_cls, BOUNDED, masked=False, setup=setup
        )
        timeline = _assert_matches_reference(
            program, core_cls, WHOLE * 2, masked=False, setup=setup
        )
        reason, _, _, executed = timeline[0][:4]
        if reason == "halt":
            break
        assert reason == "watchdog"
        hit.add(executed - 1 - first)
        expiry += 1
    assert set(range(len(_EXIT_BODY))) <= hit


#: One faulting instruction (or a short sequence ending in one) per kind
#: of fault the epilogue serves; ``t6``/``t7``/``t0`` hold data, text and
#: MMIO addresses the block cannot know, constant addresses are decided
#: at code generation.
_EXIT_FAULTS = {
    "load-misaligned": ["lw s6, 2(t6)"],
    "store-misaligned": ["sw s0, 2(t6)"],
    "load-misaligned-constant": ["lw s6, 6(zero)"],
    "store-misaligned-constant": ["sw s0, 6(zero)"],
    "load-text": ["lw s6, 0(t7)"],
    "store-text": ["sw s0, 4(t7)"],
    "load-text-constant": ["lui s6, 0x0040", "lw s6, 8(s6)"],
    "store-text-constant": ["lui s6, 0x0040", "sw s0, 8(s6)"],
    "mmio-read-unmapped": ["lw s6, 24(t0)"],
    "mmio-write-unmapped": ["sw s0, 24(t0)"],
    "mmio-read-unmapped-constant": ["lw s6, -8(zero)"],
    "div-by-zero": ["div s6, s0, zero"],
    "rem-by-zero": ["rem s6, s1, zero"],
    "fsqrt-negative": ["fsqrt f2, f1"],
}


@BOTH_CORES
@pytest.mark.parametrize("fault", sorted(_EXIT_FAULTS))
def test_fault_exit_at_indices(core_cls, fault):
    """Each fault kind, placed at the start, middle and end of the body
    block, leaves the state ``run_reference`` leaves, whole and in
    ``SEGMENT``-instruction segments."""
    lines = _EXIT_FAULTS[fault]
    for index in (0, 9, len(_EXIT_BODY) - 1 - len(lines)):
        body = list(_EXIT_BODY)
        body[index:index + len(lines)] = lines
        timeline = _assert_whole_and_bounded(_exit_program(body), core_cls)
        assert timeline[0][0] == "fault", (fault, index)


# -- the timing clamps block code keeps ---------------------------------------
#
# Block code omits every timing clamp the in-order recurrence proves dead
# (see "dead clamps" in :mod:`repro.isa.blockjit`).  Each program below
# needs a clamp that stays: a load's ready time read by the very next
# instruction, inside a block and across a block boundary, and r0's
# ready time in a program that writes r0 (no workload does, and the
# MiniC fuzz never does).  ``bltz t5, next`` is never taken: it only
# makes ``next`` a block start.

_KEPT_CLAMPS = {
    "r0-written": """
    main:
        lui t6, 0x1000         # data buffer (DATA_BASE)
        addi t1, zero, 7
        addi t2, zero, 9
        addi t5, zero, 3
    top:
        mul zero, t1, t2       # a multi-cycle op into r0 ...
        add t3, zero, t1       # ... read at once
        div zero, t3, t2
        sub t3, t3, zero
        lw zero, 0(t6)         # a missing load into r0, read by the
    next:                      # first instruction of the next block
        add t4, zero, t2
        addi t6, t6, 64
        addi t5, t5, -1
        bgtz t5, top
        blt t5, zero, next
        halt
    """,
    "load-use": """
    main:
        lui t6, 0x1000
        addi t1, zero, 5
        addi t5, zero, 3
    top:
        lw s0, 0(t6)           # a missing load, used ...
        add s1, s0, t1         # ... at distance 1
        add s2, s0, t1         # ... and at distance 2
        lw s3, 4(t6)
        sub s4, t1, s3
        xor s5, s3, s1
        lw s6, 8(t6)
    next:
        add s7, s6, t1         # distance 1, across a block boundary
        addi t6, t6, 64
        addi t5, t5, -1
        bgtz t5, top
        blt t5, zero, next
        halt
    """,
}


@BOTH_CORES
@pytest.mark.parametrize("case", sorted(_KEPT_CLAMPS))
def test_kept_clamps_match_reference(core_cls, case):
    """Each case matches ``run_reference`` whole, in
    ``SEGMENT``-instruction segments, and with the watchdog armed to
    expire at every other cycle of the run, whole and bounded (it
    fires after at least 8 distinct instruction counts)."""
    program = assemble(_KEPT_CLAMPS[case])
    timeline = _assert_whole_and_bounded(program, core_cls)
    assert timeline[-2][0] == "halt"
    end = timeline[-2][2]
    fired = set()
    for expiry in range(0, end, 2):
        setup = _armed(expiry)
        _assert_matches_reference(
            program, core_cls, BOUNDED, masked=False, setup=setup
        )
        timeline = _assert_matches_reference(
            program, core_cls, WHOLE * 2, masked=False, setup=setup
        )
        if timeline[0][0] == "watchdog":
            fired.add(timeline[0][3])
    assert len(fired) >= 8, sorted(fired)


def test_r0_clamp_is_kept_only_where_r0_is_written():
    """A program that writes r0 keeps the ``ready[0]`` clamp on both
    engines; the workloads never write r0, so their code has none."""
    for case, program, expect in (
        ("r0-written", assemble(_KEPT_CLAMPS["r0-written"]), True),
        ("cnt", get_workload("cnt", "tiny").program, False),
    ):
        machine = VISASpec().machine(program)
        geom = blockjit._geometry(machine)
        assert geom.r0_written is expect, case
        for engine in ("inorder", "ooo"):
            params = ComplexCore(machine).params if engine == "ooo" \
                else None
            source = "".join(
                blockjit._emit_block(engine, geom, params, start, insts)
                for start, insts in blockjit._walk_blocks(program)
            )
            assert ("if ready[0] >" in source) is expect, (case, engine)


@pytest.mark.parametrize("chunk", range(4))
def test_trace_tier_matches_reference_on_random_programs(chunk):
    """Dense cuts: a slice of the differential corpus in 23-instruction
    segments, so most segments end inside a block."""
    for seed in range(chunk * 5, chunk * 5 + 5):
        program = compile_source(_program(seed))
        for core_cls in (InOrderCore, ComplexCore):
            timeline = _assert_matches_reference(
                program, core_cls, (23,) * MAX_SEGMENTS
            )
            assert timeline[-2][0] == "halt", (seed, core_cls.__name__)


# -- whole workloads, truncated blocks, predictor geometry --------------------


@BOTH_CORES
def test_off_tier_parity(core_cls):
    """A whole workload agrees run whole and in 97-instruction segments."""
    program = get_workload("cnt", "tiny").program
    for budgets in (WHOLE, (97,) * MAX_SEGMENTS):
        timeline = _assert_matches_reference(program, core_cls, budgets)
        assert timeline[-2][0] == "halt"


def test_bounded_run_reuses_cut_and_leaves_disk_entry(tmp_path, monkeypatch):
    """A budget ending inside a block compiles that cut once per
    ``(pc, n)``, keeps it in memory, and never touches the disk entry."""
    program = compile_source(_program(11))
    compiled = []
    real_compile = blockjit._compile_block

    def counting_compile(*args):
        compiled.append(args)
        return real_compile(*args)

    monkeypatch.setattr(blockjit, "_compile_block", counting_compile)
    for core_cls, engine in ((InOrderCore, "inorder"), (ComplexCore, "ooo")):
        program._blockjit_tables.clear()
        runcache.reset_stats()

        def run():
            core = core_cls(Machine(program))
            result = core.run(max_instructions=50)
            assert (result.reason, result.instructions) == ("limit", 50)

        run()
        (table,) = program._blockjit_tables.values()
        (path,) = tmp_path.glob(f"blockjit-{engine}-*.marshal")
        entry = path.read_bytes(), path.stat().st_mtime_ns
        ((pc, n), cut), = table.cuts.items()
        assert 0 < n < table.blocks[pc][1], engine

        compiled.clear()
        run()
        assert not compiled, engine
        assert table.cuts == {(pc, n): cut} and table.cuts[pc, n] is cut
        assert (path.read_bytes(), path.stat().st_mtime_ns) == entry
        assert runcache.STATS["blockjit_stores"] == 1
    runcache.reset_stats()


# -- on-disk codegen cache ----------------------------------------------------


def test_disk_cache_roundtrip():
    program = get_workload("cnt", "tiny").program
    runcache.STATS.pop("blockjit_hits", None)
    runcache.STATS.pop("blockjit_misses", None)
    runcache.STATS.pop("blockjit_stores", None)

    machine = Machine(program)
    program._blockjit_tables.clear()
    cold = InOrderCore(machine).run()
    assert runcache.STATS["blockjit_misses"] >= 1
    assert runcache.STATS["blockjit_stores"] >= 1
    stats = blockjit.disk_cache_stats()
    assert stats["entries"] >= 1 and stats["bytes"] > 0
    # The keys external benchmark tooling reads stay stable.
    assert {"hits", "misses", "stores", "entries", "bytes"} <= set(stats)

    # Drop the in-process memo: the rebuild must come from disk.
    program._blockjit_tables.clear()
    machine2 = Machine(program)
    warm = InOrderCore(machine2).run()
    assert runcache.STATS["blockjit_hits"] >= 1
    assert (warm.reason, warm.end_cycle) == (cold.reason, cold.end_cycle)
    assert machine2.memory.snapshot() == machine.memory.snapshot()

    removed, freed = runcache.clear_cache()
    assert removed >= 1 and freed > 0
    assert blockjit.disk_cache_stats()["entries"] == 0


def test_cache_stats_and_clear_include_blockjit():
    program = get_workload("cnt", "tiny").program
    program._blockjit_tables.clear()
    InOrderCore(Machine(program)).run()
    stats = runcache.cache_stats()
    assert stats["blockjit"]["entries"] >= 1
    removed, _ = runcache.clear_cache()
    assert removed >= 1
    assert runcache.cache_stats()["blockjit"]["entries"] == 0


def _corrupt(fault, path, foreign_entry):
    """Damage the disk entry at ``path`` in the way ``fault`` names."""
    data = path.read_bytes()
    if fault == "truncated":
        path.write_bytes(data[: len(data) // 2])
    elif fault == "garbage":
        path.write_bytes(b"\x00 not a marshal blob \xff" * 64)
    elif fault == "wrong-version":
        path.write_bytes(foreign_entry())
    else:
        envelope = marshal.loads(data)
        envelope["value"] = [r[:3] for r in envelope["value"]]
        path.write_bytes(marshal.dumps(envelope))


@pytest.mark.parametrize(
    "fault", ["truncated", "garbage", "wrong-version", "wrong-shape"]
)
def test_damaged_disk_entry_is_a_miss_and_rebuilds(
    fault, tmp_path, monkeypatch
):
    program = get_workload("cnt", "tiny").program

    def run():
        program._blockjit_tables.clear()
        return _timeline(program, InOrderCore, "run")[0]

    def entries():
        return set(tmp_path.glob("blockjit-inorder-*.marshal"))

    def foreign_entry():
        """The entry the next CODEGEN_VERSION writes (then removed)."""
        before = entries()
        with monkeypatch.context() as patch:
            patch.setattr(
                blockjit, "CODEGEN_VERSION", blockjit.CODEGEN_VERSION + 1
            )
            run()
        (other,) = entries() - before
        data = other.read_bytes()
        other.unlink()
        return data

    expected = run()
    (path,) = entries()
    _corrupt(fault, path, foreign_entry)

    runcache.reset_stats()
    assert run() == expected
    assert runcache.STATS["blockjit_misses"] == 1
    assert runcache.STATS["blockjit_hits"] == 0
    assert runcache.STATS["blockjit_stores"] == 1
    # The rebuild republished a good entry in place.
    assert entries() == {path}
    assert run() == expected
    assert runcache.STATS["blockjit_hits"] == 1
    runcache.reset_stats()


def test_disk_entry_of_other_codegen_source_is_a_miss(
    tmp_path, monkeypatch
):
    """The disk key hashes the codegen source: a table persisted under
    one source digest is a counted miss under another, even though
    ``CODEGEN_VERSION`` is the same."""
    program = get_workload("cnt", "tiny").program

    def run():
        program._blockjit_tables.clear()
        return _timeline(program, InOrderCore, "run")[0]

    expected = run()
    monkeypatch.setattr(blockjit, "_source_digest", lambda: "edited")
    runcache.reset_stats()
    assert run() == expected
    assert runcache.STATS["blockjit_misses"] == 1
    assert runcache.STATS["blockjit_hits"] == 0
    assert runcache.STATS["blockjit_stores"] == 1
    assert len(list(tmp_path.glob("blockjit-inorder-*.marshal"))) == 2
    runcache.reset_stats()


def _emitted_blocks(scales, engines=("inorder", "ooo")):
    """``(name, scale, engine, start, insts, source)`` for every static
    block of the 8 workload programs at ``scales``, emitted (not
    compiled)."""
    for scale in scales:
        for name in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
            program = get_workload(name, scale).program
            machine = VISASpec().machine(program)
            geom = blockjit._geometry(machine)
            for engine in engines:
                params = ComplexCore(machine).params if engine == "ooo" \
                    else None
                for start, insts in blockjit._walk_blocks(program):
                    source = blockjit._emit_block(
                        engine, geom, params, start, insts
                    )
                    yield name, scale, engine, start, insts, source


def test_golden_codegen():
    """The emitted source of every workload program is unchanged."""
    assert blockjit.CODEGEN_VERSION == 6
    digest = hashlib.sha256()
    for name, scale, engine, start, insts, source in _emitted_blocks(
        ("tiny", "default")
    ):
        digest.update(
            f"{name} {scale} {engine} {start} {len(insts)}\n".encode()
        )
        digest.update(source.encode())
    assert digest.hexdigest() == CODEGEN_SHA256


def _emitted_chars_per_instruction(engine):
    """Source characters per static instruction over every block of the
    8 ``tiny`` workloads, emitted for ``engine``."""
    chars = insts = 0
    for *_, block_insts, source in _emitted_blocks(("tiny",), (engine,)):
        chars += len(source)
        insts += len(block_insts)
    return chars / insts


#: Emitted source characters per instruction (see
#: :func:`_emitted_chars_per_instruction`): in-order recorded without the
#: dead timing clamps (``CODEGEN_VERSION`` 5), OOO with list width maps,
#: batched occupancy rings and range-tested ALU wraps
#: (``CODEGEN_VERSION`` 6).
CODEGEN_CHARS_PER_INSTRUCTION = {"inorder": 563.5, "ooo": 1222.8}


@pytest.mark.parametrize("engine", ["inorder", "ooo"])
def test_codegen_size_budget(engine):
    """Emitted source stays within 5 % of its recorded size per
    instruction, so a later change cannot quietly re-inflate codegen
    (cold compile cost tracks the emitted syntax)."""
    budget = CODEGEN_CHARS_PER_INSTRUCTION[engine] * 1.05
    measured = _emitted_chars_per_instruction(engine)
    assert measured <= budget, (
        f"{engine} block code emits {measured:.1f} characters per "
        f"instruction, over its budget of {budget:.1f}"
    )


def test_cold_table_build_memory_is_bounded():
    """A cold OOO table build compiles block by block: its traced peak
    stays far below what one whole-table ``compile()`` needs (~78 MB)."""
    program = get_workload("cnt", "tiny").program
    machine = VISASpec().machine(program)
    params = ComplexCore(machine).params
    program._blockjit_tables.clear()
    runcache.reset_stats()
    tracemalloc.start()
    try:
        blockjit.block_table(machine, "ooo", params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert runcache.STATS["blockjit_stores"] == 1  # built cold, not loaded
    runcache.reset_stats()
    assert peak < 20e6, f"cold build peaked at {peak / 1e6:.1f} MB traced"

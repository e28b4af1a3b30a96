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
* codegen-level: the emitted source of every workload program is pinned
  by a golden digest, and a cold table build stays memory-bounded.
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
#: all 16 (workload, scale) programs on both engines, recorded while the
#: whole table was still compiled in one piece.  Any codegen change must
#: bump ``CODEGEN_VERSION`` and re-record this digest.
CODEGEN_SHA256 = (
    "4ec96f66410ce786f1e2f41ca0fe481e3a19690616adab0fe0247a6960cf33b1"
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
    """Observable end state, plus predictor state on the complex core."""
    state = _snapshot(core, machine)
    if isinstance(core, ComplexCore):
        state["gshare"] = core.gshare.dump_state()
        state["indirect"] = core.indirect.dump_state()
    return state


def _timeline(program, core_cls, method, budgets=WHOLE, breaks=None,
              masked=True):
    """Drive a fresh core with ``method`` (``"run"`` or
    ``"run_reference"``), one segment per entry of ``budgets``.

    Returns ``(timeline, machine)``: one entry per segment (its result
    and the pc after it, or the message of the fault that ended it),
    then the end state.  Stops at halt, watchdog, or a fault.
    """
    machine = Machine(program)
    machine.mmio.exceptions_masked = masked
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
        if r.reason not in ("limit", "breakpoint"):
            break
    timeline.append(_state(core, machine))
    return timeline, machine


def _assert_matches_reference(program, core_cls, budgets, breaks=None,
                              masked=True):
    """Block code and ``run_reference`` agree segment by segment,
    console output (with cycle stamps) included; returns the timeline."""
    block, block_machine = _timeline(
        program, core_cls, "run", budgets, breaks, masked
    )
    ref, ref_machine = _timeline(
        program, core_cls, "run_reference", budgets, breaks, masked
    )
    assert block == ref
    assert list(block_machine.mmio.console) == list(ref_machine.mmio.console)
    return block


def _assert_whole_and_bounded(program, core_cls, masked=True):
    """:func:`_assert_matches_reference` on a whole run and in
    ``SEGMENT``-instruction segments; returns the whole-run timeline."""
    bounded = _assert_matches_reference(
        program, core_cls, BOUNDED, masked=masked
    )
    assert len(bounded) > 2  # the bounded variant really was segmented
    return _assert_matches_reference(program, core_cls, WHOLE, masked=masked)


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


#: Block code's pipeline view at the text-range store fault of
#: ``test_store_to_text_mid_trace``: ``(now, counters)``, recorded when
#: block code and the retired per-instruction interpreters still ran
#: side by side and agreed on it.
STORE_TO_TEXT_TIMING = {
    "inorder": (286, {
        "dcache": 1, "fetch": 78, "fu": 77, "icache": 78, "regread": 125,
        "regwrite": 28,
    }),
    "ooo": (192, {
        "bpred": 49, "commit": 77, "fetch": 28, "fu": 77, "icache": 28,
        "iq": 77, "lsq": 1, "regread": 127, "regwrite": 28, "rename": 77,
        "rob_write": 77,
    }),
}


@BOTH_CORES
def test_store_to_text_mid_trace(core_cls):
    """A text-range store reached from a hot loop faults exactly.

    The simulator treats text-range data stores as faults (the write
    would invalidate generated code).  ``run_reference`` agrees with
    block code on the fault and the architectural state, but its
    pipeline view of the faulting store is known to differ: in-order,
    block code's ``now`` includes the store's timing; OOO, the oracle's
    event counters include the store.  Block code's view is pinned to
    literal values so it cannot drift silently.
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
    program = assemble(source)
    block, _ = _timeline(program, core_cls, "run")
    ref, _ = _timeline(program, core_cls, "run_reference")
    message = "data access inside text segment at 0x400000"
    assert block[0] == ref[0] == ("fault", message)

    def split(state):
        timing = ("now", "counters")
        return (
            (state["now"], state["counters"]),
            {k: v for k, v in state.items() if k not in timing},
        )

    block_timing, block_arch = split(block[-1])
    assert block_arch == split(ref[-1])[1]
    engine = "inorder" if core_cls is InOrderCore else "ooo"
    assert block_timing == STORE_TO_TEXT_TIMING[engine]


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
        (path,) = (tmp_path / "blockjit").glob(f"{engine}-*.marshal")
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

    removed, freed = blockjit.clear_disk_cache()
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


def test_clear_removes_legacy_json_entries(tmp_path):
    """Entries of the pre-marshal JSON format are counted and cleared."""
    directory = tmp_path / "blockjit"
    directory.mkdir()
    legacy = directory / "inorder-0123456789abcdef01234567.json"
    legacy.write_text('{"codegen": 3}')
    stats = blockjit.disk_cache_stats()
    assert (stats["entries"], stats["bytes"]) == (1, legacy.stat().st_size)
    removed, _ = runcache.clear_cache()
    assert removed == 1 and not legacy.exists()


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
        key, records = marshal.loads(data)
        path.write_bytes(marshal.dumps((key, [r[:3] for r in records])))


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
        return set((tmp_path / "blockjit").glob("inorder-*.marshal"))

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


def test_golden_codegen():
    """The emitted source of every workload program is unchanged."""
    assert blockjit.CODEGEN_VERSION == 3
    digest = hashlib.sha256()
    for scale in ("tiny", "default"):
        for name in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
            program = get_workload(name, scale).program
            machine = VISASpec().machine(program)
            geom = blockjit._geometry(machine)
            for engine, params in (
                ("inorder", None), ("ooo", ComplexCore(machine).params),
            ):
                for start, insts in blockjit._walk_blocks(program):
                    source = blockjit._emit_block(
                        engine, geom, params, start, insts
                    )
                    digest.update(
                        f"{name} {scale} {engine} {start} {len(insts)}\n"
                        .encode()
                    )
                    digest.update(source.encode())
    assert digest.hexdigest() == CODEGEN_SHA256


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

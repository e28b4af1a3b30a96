"""Differential tests for the basic-block compiler (:mod:`repro.isa.blockjit`).

The block JIT fuses straight-line runs of the ``FastInst`` plan into one
generated Python function per basic block; ``run()`` dispatches per block
instead of per instruction.  These tests pin the compiled path to the
reference interpreter:

* fuzz-level: on 200 randomized MiniC programs, ``run()`` (block-compiled)
  must match ``run_reference()`` bit for bit — end state *and* cycle
  counts — on both cores;
* edge-level: block exits at MMIO accesses, faults, flush-window
  breakpoints, checkpoint (sub-task) boundaries, and watchdog expiry must
  leave identical architectural state at identical cycles on block code,
  the per-instruction interpreter loop, and ``run_reference``;
* path-level: only full runs take block code; bounded segments run on
  the interpreter, and the two interleave freely;
* cache-level: the on-disk codegen cache round-trips (hit/miss/store
  counters observable through :data:`runcache.STATS`), and a damaged
  entry is a counted miss that rebuilds, never an error;
* codegen-level: the emitted source of every workload program is pinned
  by a golden digest, and a cold table build stays memory-bounded.
"""

import hashlib
import marshal
import tracemalloc

import pytest

from repro.errors import SimulationError
from repro.isa import blockjit
from repro.isa.assembler import assemble
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.inorder import InOrderCore
from repro.pipelines.ooo.core import ComplexCore
from repro.pipelines.ooo.event import run_interp_event
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
    )


#: Execution paths the edge cases compare: block code (``run()`` on a
#: full run), the per-instruction interpreter loop, and the oracle.
PATHS = ("block", "interp", "reference")


def _run_path(core, path, **kwargs):
    """Drive ``core`` on one execution path."""
    if path == "block":
        return core.run(**kwargs)
    if path == "interp":
        if isinstance(core, ComplexCore):
            return run_interp_event(core, **kwargs)
        return core._run_interp(**kwargs)
    return core.run_reference(**kwargs)


def _path_outcome(program, core_cls, path, **kwargs):
    machine = Machine(program)
    core = core_cls(machine)
    result = _run_path(core, path, **kwargs)
    return _outcome(core, machine, result), machine


def _run_jit_vs_reference(program, core_cls, **kwargs):
    return [
        _path_outcome(program, core_cls, path, **kwargs)[0]
        for path in ("block", "reference")
    ]


def _path_fault(program, core_cls, path):
    """(message, state) of a run that must raise ``SimulationError``."""
    machine = Machine(program)
    core = core_cls(machine)
    with pytest.raises(SimulationError) as exc_info:
        _run_path(core, path)
    return str(exc_info.value), _snapshot(core, machine)


# -- 200-program differential fuzz -------------------------------------------


@pytest.mark.parametrize("chunk", range(N_PROGRAMS // CHUNK))
def test_blockjit_matches_reference_on_random_programs(chunk):
    """End states *and* cycle counts agree on randomized programs."""
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        program = compile_source(_program(seed))
        for core_cls in (InOrderCore, ComplexCore):
            jit, ref = _run_jit_vs_reference(program, core_cls)
            assert jit == ref, (seed, core_cls.__name__)
        # The JIT path must actually have been exercised.
        assert program._blockjit_tables


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
    program = assemble(source)
    outs = [_path_outcome(program, core_cls, path) for path in PATHS]
    assert outs[0][0] == outs[1][0] == outs[2][0]
    # Console entries compare with their cycle stamps too.
    consoles = [list(machine.mmio.console) for _, machine in outs]
    assert consoles[0] == consoles[1] == consoles[2]


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
    program = assemble(source)
    outcomes = [_path_fault(program, core_cls, path) for path in PATHS]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_flush_window_breakpoint_parity():
    """``break_addrs`` at sub-task marks (the flush/checkpoint windows)."""
    program = get_workload("srt", "tiny").program
    marks = sorted(program.subtask_marks)
    breaks = frozenset(marks[1:])
    for path in PATHS:
        segments = _break_segments(program, breaks, lambda _: path)
        if path == "block":
            expected = segments
        else:
            assert segments == expected, path
    assert expected[0][0] == "breakpoint"
    assert expected[-2][0] == "halt"


def _break_segments(program, breaks, path_of):
    """Segment-by-segment timeline of an in-order run stopped at
    ``breaks``; ``path_of(i)`` picks the execution path of segment i."""
    machine = Machine(program)
    core = InOrderCore(machine)
    segments = []
    for index in range(200):
        result = _run_path(core, path_of(index), break_addrs=breaks)
        segments.append(
            (result.reason, result.start_cycle, result.end_cycle,
             result.instructions, core.state.pc)
        )
        if result.reason != "breakpoint":
            break
    segments.append(_snapshot(core, machine))
    return segments


def test_unsafe_breakpoints_still_match():
    """Arbitrary break addresses (not block leaders) stay exact."""
    program = compile_source(_program(3))
    target = program.entry + 8
    jit, ref = _run_jit_vs_reference(
        program, InOrderCore, break_addrs=frozenset({target})
    )
    assert jit[0] == "breakpoint"
    assert jit == ref


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
    program = assemble(source)
    outcomes = []
    for path in PATHS:
        machine = Machine(program)
        machine.mmio.exceptions_masked = False
        core = core_cls(machine)
        result = _run_path(core, path)
        outcomes.append(_outcome(core, machine, result))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][0] == "watchdog"


# -- hot loops with a once-taken edge event -----------------------------------
#
# Each program below runs one loop WARM times before the edge event
# fires, so the event lands on block code that has been dispatched many
# times already and must exit its block with state bit-identical to the
# interpreter loop and to ``run_reference``.

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
    program = assemble(source)
    outs = {}
    consoles = {}
    for path in PATHS:
        outs[path], machine = _path_outcome(program, core_cls, path)
        consoles[path] = list(machine.mmio.console)
    assert outs["block"] == outs["interp"] == outs["reference"]
    assert consoles["block"] == consoles["interp"] == consoles["reference"]


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
    program = assemble(source)
    outcomes = [_path_fault(program, core_cls, path) for path in PATHS]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_flush_window_breakpoint_tier_matrix():
    """Sub-task-mark breakpoints stay exact when segments switch paths.

    Mark-aligned breakpoints are block boundaries (``safe_breaks``), so
    full-run segments take block code; segments that alternate between
    block code and the interpreter loop (which share pipeline-timing
    state) must reproduce the reference timeline exactly.
    """
    program = get_workload("srt", "tiny").program
    program._blockjit_tables.clear()
    marks = sorted(program.subtask_marks)
    breaks = frozenset(marks[1:])
    expected = _break_segments(program, breaks, lambda _: "reference")
    for first, second in (("block", "interp"), ("interp", "block")):
        segments = _break_segments(
            program, breaks, lambda i: first if i % 2 == 0 else second
        )
        assert segments == expected, first
    assert expected[0][0] == "breakpoint"
    assert expected[-2][0] == "halt"


@BOTH_CORES
def test_watchdog_armed_mid_trace(core_cls):
    """Arming the watchdog from a store inside a hot loop fires exactly.

    Block code reloads the watchdog state after every MMIO store, so the
    control write that flips it on must hand over to the per-instruction
    expiry checks at the exact cycle the interpreter and oracle see.
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
    program = assemble(source)
    outcomes = []
    for path in PATHS:
        machine = Machine(program)
        machine.mmio.exceptions_masked = False
        core = core_cls(machine)
        result = _run_path(core, path)
        outcomes.append(_outcome(core, machine, result))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][0] == "watchdog"


@BOTH_CORES
def test_store_to_text_mid_trace(core_cls):
    """A text-range store reached from a hot loop faults exactly.

    The simulator treats text-range data stores as faults (the write
    would invalidate generated code).  Block code and the interpreter
    loop must raise with identical state.  ``run_reference`` agrees on
    the fault and the architectural state, but its pipeline view of
    the faulting store is known to differ: in-order, the fast paths'
    ``now`` includes the store's timing; OOO, the oracle's event
    counters include the store.
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
    outs = {path: _path_fault(program, core_cls, path) for path in PATHS}
    assert outs["block"] == outs["interp"]

    def arch(out):
        message, state = out
        timing = ("now", "counters")
        return message, {k: v for k, v in state.items() if k not in timing}

    assert arch(outs["block"]) == arch(outs["reference"])


@pytest.mark.parametrize("chunk", range(4))
def test_trace_tier_matches_reference_on_random_programs(chunk):
    """Path fuzz: a slice of the differential corpus on every path."""
    for seed in range(chunk * 10, chunk * 10 + 10):
        program = compile_source(_program(seed))
        for core_cls in (InOrderCore, ComplexCore):
            outs = [
                _path_outcome(program, core_cls, path)[0] for path in PATHS
            ]
            assert outs[0] == outs[1] == outs[2], (seed, core_cls.__name__)


# -- path selection -----------------------------------------------------------


@BOTH_CORES
def test_off_tier_parity(core_cls):
    """The interpreter loop and block code agree on a whole workload."""
    program = get_workload("cnt", "tiny").program
    outcomes = [
        _path_outcome(program, core_cls, path)[0] for path in PATHS
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_off_tier_run_uses_interpreter():
    """A bounded run (``max_instructions=``) never compiles a block table."""
    program = compile_source(_program(11))
    for core_cls in (InOrderCore, ComplexCore):
        core = core_cls(Machine(program))
        result = core.run(max_instructions=50)
        assert result.instructions == 50
    assert not program._blockjit_tables


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
        machine = Machine(program)
        core = InOrderCore(machine)
        return _outcome(core, machine, core.run())

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

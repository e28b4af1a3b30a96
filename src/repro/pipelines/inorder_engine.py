"""Cycle-accurate timing engine for the 6-stage in-order VISA pipeline.

This module is the **single timing model** behind every consumer of the
simple pipeline's timing:

1. the dynamic ``simple-fixed`` core (:mod:`repro.pipelines.inorder`) and
   the complex core's simple mode (same engine, complex core's caches),
   which call :func:`advance` once per executed instruction;
2. the model-checking WCET oracle (:mod:`repro.wcet.mc.engine`), which
   calls :func:`advance` with its exact I-cache outcomes; and
3. the static WCET analyzer (:mod:`repro.wcet.analyzer`), which runs
   :func:`advance_block` -- the same recurrence unrolled over one basic
   block -- with worst-case inputs.  ``tests/test_inorder_engine.py``
   pins the block form to :func:`advance` instruction by instruction.

Sharing the recurrence removes any possibility of drift between the
simulator and the analyzer; the safety invariant WCET >= actual then rests
only on the analyzer supplying pessimistic inputs (cache categorizations,
longest paths), which is what the paper's timing analyzer establishes.

Pipeline timing rules (paper §3.1)
----------------------------------

* Scalar: every stage handles at most one instruction per cycle.
* Fetch: 1 instruction/cycle on an I-cache hit; a miss stalls fetch for the
  worst-case memory stall time.  Branch targets come with the I-cache line
  (merged BTB), so correctly-predicted-taken branches redirect fetch with no
  bubble.
* Static BTFN prediction: backward taken, forward not-taken; misprediction
  penalty 4 cycles.  Indirect jumps stall fetch until they execute (4-cycle
  stall when unobstructed).
* Single unpipelined universal function unit: a multi-cycle operation
  blocks the execute stage (structural hazard).
* A load-dependent instruction stalls at least one cycle in register read
  (values bypass from the end of the memory stage).
* A D-cache miss occupies the memory stage for the full stall time and
  backs the pipeline up behind it (one outstanding memory request).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction

#: Paper §3.1: conditional branch misprediction penalty and indirect-branch
#: stall time, in cycles.
BRANCH_PENALTY = 4

#: Pipeline depth from fetch to execute (fetch, decode, register read).
_FRONT_DEPTH = 3

#: Fetch-side buffering: fetch of instruction i cannot start before
#: instruction i-3 has entered execute (IF/ID/RR each hold one instruction).
_FRONT_SLOTS = 3


@dataclass
class InstrTiming:
    """Cycle numbers at which one instruction occupies each stage."""

    fetch: int
    ex_start: int
    ex_end: int
    mem_start: int
    mem_end: int
    writeback: int


@dataclass
class TimingState:
    """Inter-instruction pipeline state for the in-order recurrence.

    All times are absolute cycle numbers within the current execution
    segment.  ``clone()`` supports the static analyzer's path exploration.
    """

    last_fetch: int = -1
    redirect: int = 0
    ex_free: int = -1
    mem_free: int = -1
    prev_mem_start: int = 0
    front_occupancy: tuple[int, ...] = (0,) * _FRONT_SLOTS
    reg_ready: dict = field(default_factory=dict)

    def clone(self) -> "TimingState":
        return TimingState(
            last_fetch=self.last_fetch,
            redirect=self.redirect,
            ex_free=self.ex_free,
            mem_free=self.mem_free,
            prev_mem_start=self.prev_mem_start,
            front_occupancy=self.front_occupancy,
            reg_ready=dict(self.reg_ready),
        )

    def shift(self, delta: int) -> "TimingState":
        """Return a copy with every time shifted by ``delta`` cycles.

        Used by the static analyzer to re-anchor a carried pipeline state at
        a new time origin when composing scopes.
        """
        return TimingState(
            last_fetch=self.last_fetch + delta,
            redirect=self.redirect + delta,
            ex_free=self.ex_free + delta,
            mem_free=self.mem_free + delta,
            prev_mem_start=self.prev_mem_start + delta,
            front_occupancy=tuple(t + delta for t in self.front_occupancy),
            reg_ready={k: v + delta for k, v in self.reg_ready.items()},
        )


def advance(
    state: TimingState,
    inst: Instruction,
    icache_extra: int,
    dcache_extra: int,
    control_penalty: bool,
) -> InstrTiming:
    """Advance the pipeline state by one instruction; returns its timing.

    Args:
        state: Mutated in place.
        inst: The instruction (only static properties are used).
        icache_extra: Extra fetch cycles (0 on an I-cache hit, otherwise the
            memory stall time in cycles).
        dcache_extra: Extra memory-stage cycles for this instruction's data
            access (0 for non-memory instructions, hits, and MMIO).
        control_penalty: True when fetch must wait for this instruction to
            execute — a mispredicted conditional branch or an indirect jump.
    """
    fetch = max(state.last_fetch + 1, state.redirect, state.front_occupancy[0])
    fetch += icache_extra

    ex_start = max(fetch + _FRONT_DEPTH, state.ex_free + 1, state.prev_mem_start)
    reg_ready = state.reg_ready
    for src in inst.sources:
        ready = reg_ready.get(src)
        if ready is not None and ready > ex_start:
            ex_start = ready
    ex_end = ex_start + inst.latency - 1

    mem_start = max(ex_end + 1, state.mem_free + 1)
    mem_end = mem_start + dcache_extra
    writeback = mem_end + 1

    dest = inst.dest
    if dest is not None:
        reg_ready[dest] = mem_end + 1 if inst.is_load else ex_end + 1

    state.last_fetch = fetch
    state.ex_free = ex_end
    state.mem_free = mem_end
    state.prev_mem_start = mem_start
    state.front_occupancy = state.front_occupancy[1:] + (ex_start,)
    if control_penalty:
        # Next useful fetch starts after the resolving instruction executes;
        # BRANCH_PENALTY cycles are lost relative to an unobstructed fetch.
        state.redirect = ex_end + BRANCH_PENALTY - _FRONT_DEPTH + 1

    return InstrTiming(fetch, ex_start, ex_end, mem_start, mem_end, writeback)


#: One instruction as :func:`advance_block` consumes it: (cache block,
#: source registers, destination register or None, latency, is_load).
BlockInst = tuple[int, tuple[int, ...], "int | None", int, bool]


def block_insts(insts: list[Instruction], block_shift: int) -> tuple[BlockInst, ...]:
    """Precompute the :func:`advance_block` operands of ``insts``."""
    return tuple(
        (inst.addr >> block_shift, inst.sources, inst.dest, inst.latency,
         inst.is_load)
        for inst in insts
    )


def advance_block(
    timing: TimingState,
    insts: tuple[BlockInst, ...],
    cache_block: int | None,
    covered: set[int] | frozenset[int],
    stall: int,
    penalty: bool,
) -> int | None:
    """Advance ``timing`` over a straight-line run of instructions.

    The block form of :func:`advance` for the static analyzer's
    worst-case inputs: every data access hits (misses are padded on top),
    and fetch pays ``stall`` cycles at each cache-block transition into a
    block not in ``covered``.  ``penalty`` is the control penalty of the
    *last* instruction (the block's exit edge); earlier ones have none.
    The state lives in locals and is written back once.

    Args:
        timing: Mutated in place.
        insts: Operands as built by :func:`block_insts`.
        cache_block: Cache block of the previously fetched instruction
            (None = unknown).
        covered: Cache blocks whose miss is already charged (persistent
            in an enclosing scope).
        stall: Memory stall time in cycles.
        penalty: Control penalty flag of the last instruction (``insts``
            must then be non-empty).

    Returns:
        The cache block of the last instruction (``cache_block`` when
        ``insts`` is empty).
    """
    last_fetch = timing.last_fetch
    ex_free = timing.ex_free
    mem_free = timing.mem_free
    prev_mem_start = timing.prev_mem_start
    redirect = timing.redirect
    front0, front1, front2 = timing.front_occupancy  # _FRONT_SLOTS == 3
    reg_ready = timing.reg_ready
    for block, sources, dest, latency, is_load in insts:
        fetch = last_fetch + 1
        if redirect > fetch:
            fetch = redirect
        if front0 > fetch:
            fetch = front0
        if block != cache_block:
            cache_block = block
            if block not in covered:
                fetch += stall

        ex_start = fetch + _FRONT_DEPTH
        if ex_free >= ex_start:
            ex_start = ex_free + 1
        if prev_mem_start > ex_start:
            ex_start = prev_mem_start
        for src in sources:
            ready = reg_ready.get(src)
            if ready is not None and ready > ex_start:
                ex_start = ready
        ex_end = ex_start + latency - 1

        # D-cache hit: the memory stage takes one cycle.
        mem_start = ex_end + 1 if ex_end > mem_free else mem_free + 1
        if dest is not None:
            reg_ready[dest] = mem_start + 1 if is_load else ex_end + 1

        last_fetch = fetch
        ex_free = ex_end
        mem_free = mem_start
        prev_mem_start = mem_start
        front0, front1, front2 = front1, front2, ex_start
    if penalty:
        redirect = ex_free + BRANCH_PENALTY - _FRONT_DEPTH + 1

    timing.last_fetch = last_fetch
    timing.ex_free = ex_free
    timing.mem_free = mem_free
    timing.prev_mem_start = prev_mem_start
    timing.redirect = redirect
    timing.front_occupancy = (front0, front1, front2)
    return cache_block

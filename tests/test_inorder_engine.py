"""Unit and property tests for the shared in-order timing recurrence.

The WCET analyzer's soundness rests on two properties of ``advance``:
monotonicity in the pipeline state (so join-merging by component-wise max
over-approximates), and monotonicity in the worst-case inputs (so assuming
a miss/penalty never underestimates).  Both are property-tested here.
"""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.pipelines.inorder_engine import (
    BRANCH_PENALTY,
    TimingState,
    advance,
    advance_block,
    block_insts,
)
from repro.wcet.pipeline_model import PathState, merge


def alu(addr, rd=1, rs=2, rt=3):
    return Instruction(Op.ADD, rd=rd, rs=rs, rt=rt, addr=addr)


def load(addr, rt=4, rs=2):
    return Instruction(Op.LW, rt=rt, rs=rs, imm=0, addr=addr)


class TestBasicTiming:
    def test_back_to_back_alu_one_per_cycle(self):
        state = TimingState()
        times = [
            advance(state, alu(0x400000 + 4 * i, rd=i % 8 + 8), 0, 0, False)
            for i in range(10)
        ]
        starts = [t.ex_start for t in times]
        assert starts == list(range(starts[0], starts[0] + 10))

    def test_icache_extra_delays_fetch(self):
        s1, s2 = TimingState(), TimingState()
        t1 = advance(s1, alu(0x400000), 0, 0, False)
        t2 = advance(s2, alu(0x400000), 100, 0, False)
        assert t2.fetch - t1.fetch == 100
        assert t2.writeback - t1.writeback == 100

    def test_dcache_extra_extends_memory_stage(self):
        state = TimingState()
        t = advance(state, load(0x400000), 0, 50, False)
        assert t.mem_end - t.mem_start == 50

    def test_load_use_dependency(self):
        state = TimingState()
        t_load = advance(state, load(0x400000, rt=4), 0, 0, False)
        t_use = advance(
            state, Instruction(Op.ADD, rd=5, rs=4, rt=4, addr=0x400004),
            0, 0, False,
        )
        assert t_use.ex_start >= t_load.mem_end + 1

    def test_control_penalty_stalls_next_fetch(self):
        s1, s2 = TimingState(), TimingState()
        branch = Instruction(Op.BEQ, rs=2, rt=3, imm=4, addr=0x400000)
        advance(s1, branch, 0, 0, False)
        advance(s2, branch, 0, 0, True)
        next_inst = alu(0x400014)
        t1 = advance(s1, next_inst, 0, 0, False)
        t2 = advance(s2, next_inst, 0, 0, False)
        assert t2.fetch - t1.fetch == BRANCH_PENALTY

    def test_multicycle_fu_occupancy(self):
        state = TimingState()
        div = Instruction(Op.DIV, rd=1, rs=2, rt=3, addr=0x400000)
        t_div = advance(state, div, 0, 0, False)
        assert t_div.ex_end - t_div.ex_start == 34  # 35-cycle latency
        t_next = advance(state, alu(0x400004), 0, 0, False)
        assert t_next.ex_start >= t_div.ex_end + 1


def _random_stream(rng, length):
    stream = []
    for i in range(length):
        kind = rng.random()
        addr = 0x400000 + 4 * i
        if kind < 0.5:
            stream.append(alu(addr, rd=rng.randrange(1, 32),
                              rs=rng.randrange(32), rt=rng.randrange(32)))
        elif kind < 0.8:
            stream.append(load(addr, rt=rng.randrange(1, 32),
                               rs=rng.randrange(32)))
        else:
            stream.append(Instruction(Op.MUL, rd=rng.randrange(1, 32),
                                      rs=rng.randrange(32),
                                      rt=rng.randrange(32), addr=addr))
    return stream


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_advance_monotone_in_cache_inputs(seed):
    """Pessimistic inputs (misses, penalties) never reduce any time."""
    rng = random.Random(seed)
    stream = _random_stream(rng, 15)
    flags = [
        (rng.choice([0, 100]), rng.choice([0, 100]), rng.random() < 0.2)
        for _ in stream
    ]
    optimistic = TimingState()
    pessimistic = TimingState()
    for inst, (ic, dc, cp) in zip(stream, flags):
        t_opt = advance(optimistic, inst, 0, 0, False)
        t_pes = advance(pessimistic, inst, ic, dc, cp)
        assert t_pes.writeback >= t_opt.writeback
        assert t_pes.ex_start >= t_opt.ex_start


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), shift=st.integers(1, 200))
def test_advance_monotone_in_state(seed, shift):
    """A later (shifted) starting state can only produce later times —
    the property that makes join-merging by max sound."""
    rng = random.Random(seed)
    stream = _random_stream(rng, 12)
    early = TimingState()
    late = TimingState().shift(shift)
    for inst in stream:
        t_early = advance(early, inst, 0, 0, False)
        t_late = advance(late, inst, 0, 0, False)
        assert t_late.writeback >= t_early.writeback


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_merge_is_upper_bound(seed):
    """Continuing from merge(a, b) is never faster than from a or b."""
    rng = random.Random(seed)
    prefix_a = _random_stream(rng, 8)
    rng2 = random.Random(seed + 1)
    prefix_b = _random_stream(rng2, 8)
    suffix = _random_stream(random.Random(seed + 2), 8)

    pa, pb = PathState.fresh(), PathState.fresh()
    for inst in prefix_a:
        advance(pa.timing, inst, 0, 0, False)
    for inst in prefix_b:
        advance(pb.timing, inst, 0, 0, False)
    merged = merge(pa.clone(), pb.clone())

    for inst in suffix:
        ta = advance(pa.timing, inst, 0, 0, False)
        tb = advance(pb.timing, inst, 0, 0, False)
        tm = advance(merged.timing, inst, 0, 0, False)
        assert tm.writeback >= ta.writeback
        assert tm.writeback >= tb.writeback


def test_shift_preserves_relative_timing():
    state = TimingState()
    stream = _random_stream(random.Random(3), 10)
    base_times = [advance(state, inst, 0, 0, False) for inst in stream]
    shifted = TimingState().shift(500)
    shifted_times = [advance(shifted, inst, 0, 0, False) for inst in stream]
    for t0, t1 in zip(base_times, shifted_times):
        assert t1.writeback - t0.writeback == 500
        assert t1.ex_start - t0.ex_start == 500


def _random_run(rng, length, base):
    """Straight-line run mixing ALU, loads, multi-cycle ops and a control
    instruction (conditional branch or indirect jump) anywhere."""
    run = []
    for i in range(length):
        addr = base + 4 * i
        kind = rng.random()
        if kind < 0.35:
            run.append(alu(addr, rd=rng.randrange(1, 32),
                           rs=rng.randrange(32), rt=rng.randrange(32)))
        elif kind < 0.6:
            run.append(load(addr, rt=rng.randrange(1, 32),
                            rs=rng.randrange(32)))
        elif kind < 0.75:
            op = rng.choice([Op.MUL, Op.DIV])
            run.append(Instruction(op, rd=rng.randrange(1, 32),
                                   rs=rng.randrange(32),
                                   rt=rng.randrange(32), addr=addr))
        elif kind < 0.9:
            run.append(Instruction(Op.BEQ, rs=rng.randrange(32),
                                   rt=rng.randrange(32),
                                   imm=rng.randrange(-8, 8), addr=addr))
        else:
            run.append(Instruction(Op.JR, rs=rng.randrange(32), addr=addr))
    return run


def _random_state(rng):
    """A carried pipeline state: arbitrary times, live register results."""
    origin = rng.randrange(0, 500)
    return TimingState(
        last_fetch=origin + rng.randrange(-1, 20),
        redirect=origin + rng.randrange(0, 30),
        ex_free=origin + rng.randrange(-1, 40),
        mem_free=origin + rng.randrange(-1, 40),
        prev_mem_start=origin + rng.randrange(0, 40),
        front_occupancy=tuple(
            sorted(origin + rng.randrange(0, 30) for _ in range(3))
        ),
        reg_ready={
            rng.randrange(1, 32): origin + rng.randrange(0, 60)
            for _ in range(rng.randrange(0, 10))
        },
    )


def _step_rule(state, run, cache_block, covered, shift, stall, penalty):
    """The per-instruction rule: charge ``stall`` on a transition into an
    uncovered cache block, then advance by one instruction."""
    for i, inst in enumerate(run):
        block = inst.addr >> shift
        extra = 0
        if block != cache_block:
            if block not in covered:
                extra = stall
            cache_block = block
        advance(state, inst, extra, 0, penalty and i == len(run) - 1)
    return cache_block


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_advance_block_matches_per_instruction_rule(seed):
    """The block form the static analyzer runs is the same recurrence."""
    rng = random.Random(seed)
    shift = rng.choice([4, 5, 6])
    penalty = rng.random() < 0.5
    length = rng.randrange(1 if penalty else 0, 24)
    base = 0x400000 + 4 * rng.randrange(0, 64)
    run = _random_run(rng, length, base)
    blocks = sorted({inst.addr >> shift for inst in run} | {base >> shift})
    covered = {b for b in blocks if rng.random() < 0.4}
    entry_block = rng.choice([None, base >> shift, (base >> shift) - 1])
    stall = rng.choice([0, 1, 10, 100])

    expected = _random_state(rng)
    actual = expected.clone()
    expected_block = _step_rule(
        expected, run, entry_block, covered, shift, stall, penalty
    )
    actual_block = advance_block(
        actual, block_insts(run, shift), entry_block, covered, stall,
        penalty,
    )
    assert actual_block == expected_block
    assert dataclasses.asdict(actual) == dataclasses.asdict(expected)

"""Static pipeline-model unit tests: merge semantics, I-cache charging in
the block form of the recurrence, edge penalties."""

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.pipelines.inorder_engine import TimingState, advance_block, block_insts
from repro.wcet.pipeline_model import PathState, edge_penalty, merge


def walk(state, insts, covered, stall):
    """Run ``insts`` through ``advance_block`` with 64-byte cache blocks."""
    state.cache_block = advance_block(
        state.timing, block_insts(insts, 6), state.cache_block, covered,
        stall, False,
    )


class TestPathState:
    def test_fresh_state(self):
        state = PathState.fresh()
        assert state.cache_block is None
        assert state.frontier == 0

    def test_shift_charges_cycles(self):
        state = PathState.fresh()
        shifted = state.shift(50)
        assert shifted.frontier == state.frontier + 50

    def test_shift_zero_is_identity_object(self):
        state = PathState.fresh()
        assert state.shift(0) is state

    def test_clone_is_independent(self):
        state = PathState.fresh()
        clone = state.clone()
        walk(clone, [Instruction(Op.ADD, rd=1, rs=2, rt=3, addr=0x400000)],
             set(), 100)
        assert state.frontier == 0
        assert clone.frontier > 0


class TestMergeCacheBlock:
    def test_equal_blocks_survive(self):
        a, b = PathState.fresh(), PathState.fresh()
        a.cache_block = b.cache_block = 0x1000
        assert merge(a, b).cache_block == 0x1000

    def test_different_blocks_become_unknown(self):
        a, b = PathState.fresh(), PathState.fresh()
        a.cache_block, b.cache_block = 0x1000, 0x2000
        assert merge(a, b).cache_block is None

    def test_merge_with_none_copies(self):
        b = PathState.fresh()
        b.timing = TimingState().shift(7)
        merged = merge(None, b)
        assert merged.frontier == b.frontier
        assert merged is not b  # defensive copy


class TestStepCacheCharging:
    """I-cache charging of each recurrence step in ``advance_block``."""

    def test_covered_block_is_free(self):
        insts = [Instruction(Op.ADD, rd=1, rs=2, rt=3, addr=0x400000)]
        covered = {0x400000 >> 6}
        charged = PathState.fresh()
        walk(charged, insts, set(), 100)
        free = PathState.fresh()
        walk(free, insts, covered, 100)
        assert charged.frontier - free.frontier == 100

    def test_same_block_charged_once(self):
        state = PathState.fresh()
        insts = [  # all in one 64-byte block
            Instruction(Op.ADD, rd=1, rs=2, rt=3, addr=0x400000 + 4 * i)
            for i in range(4)
        ]
        walk(state, insts, set(), 100)
        # One miss (100) + 4 instructions of pipeline time, not 4 misses.
        assert state.frontier < 100 + 40
        assert state.cache_block == 0x400000 >> 6

    def test_block_transition_recharges(self):
        state = PathState.fresh()
        walk(state, [Instruction(Op.ADD, rd=1, rs=2, rt=3, addr=0x400000)],
             set(), 100)
        mid = state.frontier
        walk(state, [Instruction(Op.ADD, rd=1, rs=2, rt=3, addr=0x400040)],
             set(), 100)
        assert state.frontier - mid >= 100

    def test_carried_cache_block_is_not_recharged(self):
        state = PathState.fresh()
        walk(state, [Instruction(Op.ADD, rd=1, rs=2, rt=3, addr=0x400000)],
             set(), 100)
        mid = state.frontier
        walk(state, [Instruction(Op.ADD, rd=1, rs=2, rt=3, addr=0x400004)],
             set(), 100)
        assert state.frontier - mid < 100


class TestEdgePenalty:
    def branch(self, imm):
        return Instruction(Op.BEQ, rs=1, rt=2, imm=imm, addr=0x400100)

    def test_backward_branch_btfn(self):
        backward = self.branch(-4)
        assert not edge_penalty(backward, "taken")  # predicted taken
        assert edge_penalty(backward, "fall")

    def test_forward_branch_btfn(self):
        forward = self.branch(4)
        assert edge_penalty(forward, "taken")
        assert not edge_penalty(forward, "fall")

    def test_direct_jump_free(self):
        jump = Instruction(Op.J, target=0x100, addr=0x400000)
        assert not edge_penalty(jump, "jump")

    def test_indirect_always_stalls(self):
        ret = Instruction(Op.JR, rs=31, addr=0x400000)
        assert edge_penalty(ret, "return")

    def test_halt_free(self):
        halt = Instruction(Op.HALT, addr=0x400000)
        assert not edge_penalty(halt, "return")

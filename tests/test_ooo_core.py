"""Complex OOO core tests: functional equivalence, ILP, predictors, modes."""

import random

import pytest

from repro.isa.assembler import assemble
from repro.memory.machine import Machine
from repro.pipelines.inorder import InOrderCore
from repro.pipelines.ooo.core import ComplexCore, OOOParams
from repro.pipelines.ooo.predictor import GsharePredictor, IndirectPredictor


def run_both(source):
    program = assemble(source)
    m1, m2 = Machine(program), Machine(program)
    simple = InOrderCore(m1)
    complex_ = ComplexCore(m2)
    r1, r2 = simple.run(), complex_.run()
    return (simple, m1, r1), (complex_, m2, r2)


class TestFunctionalEquivalence:
    def test_register_state_matches(self):
        source = (
            ".data\narr: .word 3, 1, 4, 1, 5, 9, 2, 6\n.text\n"
            "main:\nla t0, arr\nli t1, 0\nli t2, 8\n"
            "loop:\nlw t3, 0(t0)\nadd t1, t1, t3\naddi t0, t0, 4\n"
            "subi t2, t2, 1\nbgtz t2, loop\nhalt"
        )
        (s, _, _), (c, _, _) = run_both(source)
        assert s.state.int_regs == c.state.int_regs
        assert s.state.fp_regs == c.state.fp_regs

    def test_memory_state_matches(self):
        source = (
            ".data\nbuf: .space 64\n.text\n"
            "main:\nla t0, buf\nli t1, 0\nli t2, 16\n"
            "loop:\nmul t3, t1, t1\nsw t3, 0(t0)\naddi t0, t0, 4\n"
            "addi t1, t1, 1\nsubi t2, t2, 1\nbgtz t2, loop\nhalt"
        )
        (_, m1, _), (_, m2, _) = run_both(source)
        assert m1.memory.snapshot() == m2.memory.snapshot()

    def test_random_arithmetic_program_equivalence(self):
        rng = random.Random(7)
        lines = ["main:"]
        for i in range(120):
            kind = rng.randrange(5)
            rd = f"t{rng.randrange(8)}"
            ra = f"t{rng.randrange(8)}"
            rb = f"t{rng.randrange(8)}"
            if kind == 0:
                lines.append(f"addi {rd}, {ra}, {rng.randrange(-100, 100)}")
            elif kind == 1:
                lines.append(f"add {rd}, {ra}, {rb}")
            elif kind == 2:
                lines.append(f"mul {rd}, {ra}, {rb}")
            elif kind == 3:
                lines.append(f"xor {rd}, {ra}, {rb}")
            else:
                lines.append(f"slt {rd}, {ra}, {rb}")
        lines.append("halt")
        (s, _, _), (c, _, _) = run_both("\n".join(lines))
        assert s.state.int_regs == c.state.int_regs

    def test_instret_matches(self):
        source = "main:\nli t0, 10\nloop:\nsubi t0, t0, 1\nbgtz t0, loop\nhalt"
        (s, _, _), (c, _, _) = run_both(source)
        assert s.state.instret == c.state.instret


class TestILP:
    def test_ooo_faster_on_independent_fp(self):
        body = "\n".join(f"fadd f{4 + i}, f{4 + i}, f2" for i in range(8))
        source = (
            "main:\nli t2, 100\nitof f2, t2\n"
            f"loop:\n{body}\nsubi t2, t2, 1\nbgtz t2, loop\nhalt"
        )
        (_, _, r1), (_, _, r2) = run_both(source)
        assert r1.end_cycle > 2.5 * r2.end_cycle

    def test_ooo_not_slower_on_serial_chain(self):
        source = (
            "main:\nli t0, 0\nli t2, 200\n"
            "loop:\naddi t0, t0, 1\nsubi t2, t2, 1\nbgtz t2, loop\nhalt"
        )
        (_, _, r1), (_, _, r2) = run_both(source)
        assert r2.end_cycle <= r1.end_cycle * 1.1


class TestStructureLimits:
    def test_small_rob_slows_execution(self):
        body = "\n".join(f"fadd f{4 + i % 8}, f{4 + i % 8}, f2" for i in range(16))
        source = (
            "main:\nli t2, 50\nitof f2, t2\n"
            f"loop:\n{body}\nsubi t2, t2, 1\nbgtz t2, loop\nhalt"
        )
        program = assemble(source)
        big = ComplexCore(Machine(program))
        tiny = ComplexCore(
            Machine(program), params=OOOParams(rob_entries=8, iq_entries=4)
        )
        rb, rt = big.run(), tiny.run()
        assert rt.end_cycle > rb.end_cycle

    def test_narrow_issue_slows_execution(self):
        body = "\n".join(f"addi s{i % 8}, s{i % 8}, 1" for i in range(12))
        source = f"main:\nli t2, 50\nloop:\n{body}\nsubi t2, t2, 1\nbgtz t2, loop\nhalt"
        program = assemble(source)
        wide = ComplexCore(Machine(program))
        narrow = ComplexCore(
            Machine(program),
            params=OOOParams(issue_width=1, dispatch_width=1, commit_width=1,
                             fetch_width=1),
        )
        rw, rn = wide.run(), narrow.run()
        assert rn.end_cycle > 1.5 * rw.end_cycle


class TestStoreForwarding:
    def test_store_load_same_address_is_correct(self):
        source = (
            ".data\nv: .space 4\n.text\n"
            "main:\nla t0, v\nli t1, 123\nsw t1, 0(t0)\nlw t2, 0(t0)\n"
            "add t3, t2, t2\nhalt"
        )
        (_, _, _), (c, _, _) = run_both(source)
        assert c.state.int_regs[10] == 123
        assert c.state.int_regs[11] == 246


class TestPredictors:
    def test_gshare_learns_loop(self):
        predictor = GsharePredictor(bits=10)
        pc = 0x400100
        # Train: taken 9 times, not-taken once, repeatedly.
        for _ in range(20):
            for i in range(10):
                predictor.update(pc, i != 9)
        hits = 0
        for i in range(10):
            if predictor.predict(pc) == (i != 9):
                hits += 1
            predictor.update(pc, i != 9)
        assert hits >= 8

    def test_gshare_flush_resets(self):
        predictor = GsharePredictor(bits=8)
        for _ in range(10):
            predictor.update(0x400000, True)
        assert predictor.predict(0x400000)
        predictor.flush()
        assert not predictor.predict(0x400000)
        assert predictor.history == 0

    def test_gshare_snapshot_digit_string(self):
        """The snapshot format: one ASCII digit per 2-bit counter."""
        predictor = GsharePredictor(bits=3)
        predictor.table = [0, 1, 2, 3, 3, 2, 1, 0]
        predictor.history = 5
        state = predictor.dump_state()
        assert state == {"bits": 3, "table": "01233210", "history": 5}
        restored = GsharePredictor(bits=3)
        restored.load_state(state)
        assert restored.table == predictor.table
        assert restored.history == 5
        for bad in ("0123321", "01234210", "0123321x"):
            with pytest.raises(ValueError):
                restored.load_state({"bits": 3, "table": bad, "history": 0})
        assert restored.table == predictor.table  # failed loads change nothing

    def test_gshare_snapshot_full_table_round_trip(self):
        rng = random.Random(7)
        predictor = GsharePredictor()
        for _ in range(5000):
            predictor.update(4 * rng.randrange(1 << 16), rng.random() < 0.7)
        state = predictor.dump_state()
        assert state["table"] == "".join(map(str, predictor.table))
        restored = GsharePredictor()
        restored.load_state(state)
        assert restored.table == predictor.table
        assert restored.dump_state() == state

    def test_indirect_predictor_remembers_target(self):
        predictor = IndirectPredictor(bits=8)
        assert predictor.predict(0x400000) is None
        predictor.update(0x400000, 0x400800)
        predictor.history = 0
        assert predictor.predict(0x400000) == 0x400800

    def test_predictor_flush_increases_cycles(self):
        source = (
            "main:\nli t2, 64\nli t1, 0\n"
            "loop:\nandi t3, t2, 3\nbeqz t3, skip\naddi t1, t1, 1\n"
            "skip:\nsubi t2, t2, 1\nbgtz t2, loop\nhalt"
        )
        program = assemble(source)
        machine = Machine(program)
        core = ComplexCore(machine)

        def run_once():
            core.state.pc = program.entry
            core.state.halted = False
            start = core.state.now
            return core.run().end_cycle - start

        run_once()  # warm
        warm = run_once()
        machine.flush_caches_and_predictor()
        core.flush_predictors()
        flushed = run_once()
        assert flushed > warm


class TestSimpleMode:
    def test_simple_mode_matches_simple_fixed_timing(self):
        """The core invariant of §3.2: simple mode implements the VISA.

        From identical cold state, the complex core in simple mode must
        produce exactly the cycle count of the simple-fixed processor.
        """
        source = (
            ".data\narr: .word 5, 3, 8, 1, 9, 2, 7, 4\n.text\n"
            "main:\nla t0, arr\nli t1, 0\nli t2, 8\n"
            "loop:\nlw t3, 0(t0)\nmul t4, t3, t3\nadd t1, t1, t4\n"
            "addi t0, t0, 4\nsubi t2, t2, 1\nbgtz t2, loop\n"
            "jal leaf\nhalt\nleaf:\nadd s0, t1, t1\njr ra\n"
        )
        program = assemble(source)
        reference = InOrderCore(Machine(program))
        r_ref = reference.run()

        complex_core = ComplexCore(Machine(program))
        smode = complex_core.simple_mode_core()
        r_smode = smode.run()
        assert r_smode.end_cycle == r_ref.end_cycle
        assert smode.state.int_regs == reference.state.int_regs

    def test_simple_mode_shares_architectural_state(self):
        source = "main:\nli s0, 5\nloop: subi s0, s0, 1\nbgtz s0, loop\nhalt"
        program = assemble(source)
        core = ComplexCore(Machine(program))
        core.run(max_instructions=2)  # executes li + first subi in complex
        smode = core.simple_mode_core()
        result = smode.run()
        assert result.reason == "halt"
        assert core.state.int_regs[16] == 0
        assert core.state.halted

    def test_simple_mode_counters_use_prefix(self):
        program = assemble("main:\nnop\nhalt")
        core = ComplexCore(Machine(program))
        core.simple_mode_core().run()
        assert core.state.counters["smode_fu"] == 2
        assert core.state.counters.get("iq", 0) == 0

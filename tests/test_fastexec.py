"""Differential tests for the fast execution path.

Both cores' ``run()`` executes generated block code
(:mod:`repro.isa.blockjit`, emitted from the per-instruction plan of
:mod:`repro.isa.fastexec`) instead of the handler table in
:mod:`repro.isa.semantics`.  These tests pin the fast path to the
reference path three ways:

* instruction-level: each ALU instruction, run alone as a
  one-instruction block, must write what
  :func:`repro.isa.semantics.execute` computes on randomized state;
* core-level: ``run()`` must match ``run_reference()`` bit for bit —
  cycles, registers, memory, counters, cache statistics — on randomized
  structured programs;
* exception-level: watchdog interruptions must fire at the same cycle
  with the same architectural state on both paths.
"""

import random

import pytest

from repro.isa import semantics
from repro.isa.assembler import assemble
from repro.isa.fastexec import (
    K_ALU,
    K_BRANCH,
    K_INDIRECT,
    K_JUMP,
    K_LOAD,
    K_STORE,
    compile_inst,
)
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.inorder import InOrderCore
from repro.pipelines.ooo.core import ComplexCore


def _random_program(seed: int) -> str:
    """Random structured MiniC program with memory traffic and calls."""
    rng = random.Random(seed)
    n = rng.randint(4, 14)
    lines = [
        f"int a[{n}];",
        f"int b[{n}];",
        "int mix(int x, int y) { return x * 5 - y / 2; }",
        "void main() {",
        "  int i; int t;",
        f"  for (i = 0; i < {n}; i = i + 1) {{",
        f"    a[i] = i * {rng.randint(2, 11)} - {rng.randint(0, 60)};",
        "  }",
    ]
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["+", "-", "*", "/"])
        lines.append(f"  for (i = 0; i < {n}; i = i + 1) {{")
        lines.append(rng.choice([
            f"    b[i] = a[i] {op} {rng.randint(1, 7)};",
            f"    b[i] = a[({n - 1} - i)] + a[i];",
            "    t = mix(a[i], i);\n    b[i] = t;",
        ]))
        lines.append("  }")
        if rng.random() < 0.5:
            lines.append(f"  for (i = 0; i < {n}; i = i + 1) {{")
            lines.append("    if (b[i] > a[i]) { a[i] = b[i]; }")
            lines.append("  }")
    lines.append(f"  for (i = 0; i < {n}; i = i + 1) {{")
    lines.append("    __out(a[i] + b[i]);")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _snapshot(core, machine):
    return {
        "int_regs": list(core.state.int_regs),
        "fp_regs": list(core.state.fp_regs),
        "pc": core.state.pc,
        "now": core.state.now,
        "instret": core.state.instret,
        "counters": dict(core.state.counters),
        "memory": machine.memory.snapshot(),
        "console": [v for _, v in machine.mmio.console],
        "icache": (machine.icache.stats.hits, machine.icache.stats.misses),
        "dcache": (machine.dcache.stats.hits, machine.dcache.stats.misses),
    }


def _run_both(program, core_cls, **kwargs):
    out = []
    for method in ("run", "run_reference"):
        machine = Machine(program)
        core = core_cls(machine)
        result = getattr(core, method)(**kwargs)
        out.append((result, _snapshot(core, machine)))
    return out


class TestClosureLevel:
    """Each instruction compiled on its own agrees with semantics.execute.

    (The class and test names date from the per-instruction closure
    executors this first checked; the compiled unit is now a
    one-instruction block.)
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_alu_closures_match_reference(self, seed):
        program = compile_source(_random_program(seed))
        machine = Machine(program)
        core = InOrderCore(machine)
        core.run()  # leaves a realistic final register file behind
        core.state.halted = False
        rng = random.Random(seed)
        ir = list(core.state.int_regs)
        fr = list(core.state.fp_regs)
        for _ in range(64):
            ir[rng.randrange(1, 32)] = rng.randint(-(2**31), 2**31 - 1)
        checked = 0
        for entry in program.fast_plan():
            kind, wbank, dnum, inst = entry[0], entry[3], entry[4], entry[10]
            if kind != K_ALU:
                continue
            core.state.int_regs[:] = ir
            core.state.fp_regs[:] = fr
            core.state.pc = inst.addr
            try:
                want = semantics.execute(
                    inst, ir.__getitem__, fr.__getitem__
                ).value
            except Exception as exc:  # div-by-zero etc.: both paths raise
                with pytest.raises(type(exc)):
                    core.run(max_instructions=1)
                continue
            result = core.run(max_instructions=1)
            assert (result.reason, result.instructions) == ("limit", 1)
            expect_ir, expect_fr = list(ir), list(fr)
            if wbank == 1:
                expect_ir[dnum] = want
            elif wbank == 2:
                expect_fr[dnum] = want
            assert core.state.int_regs == expect_ir, inst
            assert core.state.fp_regs == expect_fr, inst
            assert core.state.pc == inst.addr + 4
            checked += 1
        assert checked

    def test_compile_inst_kinds_cover_program(self):
        source = """
        main:
            addi t0, zero, 5
            lw t1, 0(sp)
            sw t1, 4(sp)
            beq t0, t1, main
            jal sub
            jr ra
        sub:
            halt
        """
        program = assemble(source)
        kinds = {compile_inst(inst)[0] for inst in program.instructions}
        assert {K_ALU, K_LOAD, K_STORE, K_BRANCH, K_JUMP, K_INDIRECT} <= kinds


class TestCoreLevel:
    """run() vs run_reference(): bit-identical end state."""

    @pytest.mark.parametrize("seed", range(12))
    def test_inorder_fast_matches_reference(self, seed):
        program = compile_source(_random_program(seed))
        (fast_res, fast), (ref_res, ref) = _run_both(program, InOrderCore)
        assert fast_res.reason == ref_res.reason == "halt"
        assert fast_res.end_cycle == ref_res.end_cycle
        assert fast == ref

    @pytest.mark.parametrize("seed", range(12))
    def test_ooo_fast_matches_reference(self, seed):
        program = compile_source(_random_program(100 + seed))
        (fast_res, fast), (ref_res, ref) = _run_both(program, ComplexCore)
        assert fast_res.reason == ref_res.reason == "halt"
        assert fast_res.end_cycle == ref_res.end_cycle
        assert fast == ref

    @pytest.mark.parametrize("seed", range(4))
    def test_instruction_budget_agrees(self, seed):
        program = compile_source(_random_program(200 + seed))
        for core_cls in (InOrderCore, ComplexCore):
            (fast_res, fast), (ref_res, ref) = _run_both(
                program, core_cls, max_instructions=97
            )
            assert fast_res.reason == ref_res.reason
            assert fast_res.end_cycle == ref_res.end_cycle
            assert fast == ref

    def test_inorder_breakpoint_agrees(self):
        program = compile_source(_random_program(777))
        # Break a couple of instructions into main's prologue (helpers may
        # be inlined, so function entries are not reliably executed).
        target = program.entry + 8
        (fast_res, fast), (ref_res, ref) = _run_both(
            program, InOrderCore, break_addrs=frozenset({target})
        )
        assert fast_res.reason == ref_res.reason == "breakpoint"
        assert fast_res.end_cycle == ref_res.end_cycle
        assert fast == ref


class TestWatchdogAndErrors:
    def test_watchdog_fires_at_same_cycle(self):
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
        states = []
        for method in ("run", "run_reference"):
            machine = Machine(program)
            machine.mmio.exceptions_masked = False
            core = InOrderCore(machine)
            result = getattr(core, method)()
            states.append(
                (result.reason, result.end_cycle, core.state.pc,
                 list(core.state.int_regs))
            )
        assert states[0] == states[1]
        assert states[0][0] == "watchdog"

    @pytest.mark.parametrize("core_cls", [InOrderCore, ComplexCore])
    def test_misaligned_access_raises_identically(self, core_cls):
        program = assemble("main:\naddi t0, zero, 2\nlw t1, 0(t0)\nhalt\n")
        errors = []
        for method in ("run", "run_reference"):
            machine = Machine(program)
            core = core_cls(machine)
            with pytest.raises(Exception) as exc_info:
                getattr(core, method)()
            errors.append(str(exc_info.value))
        assert errors[0] == errors[1]
        assert "misaligned" in errors[0]

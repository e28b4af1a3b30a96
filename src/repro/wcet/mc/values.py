"""Concrete-value tracking for the model-checking WCET engine.

The engine explores real program paths, so it carries an *exact partial*
architectural state: every register and memory word is either **known**
(one concrete value, identical on every execution reaching this point
regardless of task inputs) or **unknown**.  The starting point mirrors
:class:`repro.pipelines.state.CoreState` — registers are architecturally
zeroed (``sp`` = stack top) — while data memory starts fully unknown,
because task inputs are written into the data segment before the run and
a sound bound must hold for *every* input.

Unknown is always a safe direction: dropping knowledge can only make the
engine evaluate a branch as "either way" (exploring both edges) or a
loop exit as "maybe" (running to the declared bound), never skip a path
the hardware could take.  That is the whole soundness story of this
module; precision is what the exactness buys on the workloads' abundant
input-independent control flow (counted loops, init sweeps).

Functional semantics are *shared* with both pipeline simulators via
:func:`repro.isa.semantics.execute`; only the unknown-propagation shell
lives here, so the oracle cannot drift from the cores architecturally.

Aliasing rule: a store whose address is unknown conservatively forgets
**all** known memory (it could alias any word).  No memory-layout
assumption is made — minicc keeps scalars in registers, so this rarely
costs precision in practice.
"""

from __future__ import annotations

from typing import Union

from repro.errors import SimulationError
from repro.isa import layout
from repro.isa.instruction import Instruction, RegRef
from repro.isa.opcodes import Op
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS, RA, SP
from repro.isa.semantics import execute, to_u32

#: A known concrete value (integer registers/words or FP doubles).
Value = Union[int, float]

#: Hashable fingerprint of the known architectural facts.
ValueDigest = tuple[
    tuple[tuple[int, int], ...],
    tuple[tuple[int, float], ...],
    tuple[tuple[int, Value], ...],
]


#: Relevant register numbers, int bank then fp bank, each sorted.
RegisterSlice = tuple[tuple[int, ...], tuple[int, ...]]


class _Unknown(Exception):
    """Raised by register-read callbacks when the value is not tracked."""


class ValueStore:
    """Exact partial architectural state (known registers and memory).

    Registers and memory words are dicts keyed by register number /
    word address; **absence means unknown**.  ``r0`` is pinned to zero
    like the hardware.
    """

    __slots__ = ("int_regs", "fp_regs", "memory")

    def __init__(
        self,
        int_regs: dict[int, int],
        fp_regs: dict[int, float],
        memory: dict[int, Value],
    ) -> None:
        self.int_regs = int_regs
        self.fp_regs = fp_regs
        self.memory = memory

    @classmethod
    def initial(cls) -> "ValueStore":
        """The architectural reset state (mirrors ``CoreState``):
        all registers known-zero, ``sp`` at the stack top, memory unknown.
        """
        int_regs = {n: 0 for n in range(NUM_INT_REGS)}
        int_regs[SP] = layout.STACK_TOP
        fp_regs = {n: 0.0 for n in range(NUM_FP_REGS)}
        return cls(int_regs, fp_regs, {})

    def clone(self) -> "ValueStore":
        return ValueStore(
            dict(self.int_regs), dict(self.fp_regs), dict(self.memory)
        )

    # -- register access ---------------------------------------------------------

    def _read_int(self, num: int) -> int:
        try:
            return self.int_regs[num]
        except KeyError:
            raise _Unknown from None

    def _read_fp(self, num: int) -> float:
        try:
            return self.fp_regs[num]
        except KeyError:
            raise _Unknown from None

    def _write(self, ref: RegRef | None, value: Value | None) -> None:
        """Set a register to a known value, or forget it (``None``)."""
        if ref is None:
            return
        bank, num = ref
        if bank == "i":
            if num == 0:
                return  # r0 ignores writes
            if value is None:
                self.int_regs.pop(num, None)
            else:
                self.int_regs[num] = int(value)
        else:
            if value is None:
                self.fp_regs.pop(num, None)
            else:
                self.fp_regs[num] = float(value)

    # -- instruction semantics ----------------------------------------------------

    def eval_branch(self, inst: Instruction) -> bool | None:
        """Branch outcome: True/False when decidable, None when unknown."""
        try:
            result = execute(inst, self._read_int, self._read_fp)
        except _Unknown:
            return None
        return result.taken

    def apply(self, inst: Instruction) -> None:
        """Update the store for one non-branch instruction.

        Control flow is the engine's job (the CFG encodes targets);
        branches go through :meth:`eval_branch` instead.
        """
        op = inst.op
        if op is Op.JAL:
            assert inst.addr is not None
            self._write(("i", RA), inst.addr + 4)
            return
        if op in (Op.J, Op.JR, Op.HALT) or inst.is_branch:
            return
        if inst.is_load:
            self._apply_load(inst)
            return
        if inst.is_store:
            self._apply_store(inst)
            return
        try:
            result = execute(inst, self._read_int, self._read_fp)
            value: Value | None = result.value  # type: ignore[assignment]
        except (_Unknown, SimulationError):
            # Unknown operand, or a fault (div by zero) that only a path
            # with imprecise values can reach: forget the destination.
            value = None
        self._write(inst.dest, value)

    def _effective_addr(self, inst: Instruction) -> int | None:
        base = self.int_regs.get(inst.rs)
        if base is None:
            return None
        return to_u32(base + inst.imm)

    def _apply_load(self, inst: Instruction) -> None:
        addr = self._effective_addr(inst)
        if addr is None or layout.is_mmio(addr):
            # Unknown address, or a device register (cycle counter,
            # watchdog): the loaded value is execution-dependent.
            self._write(inst.dest, None)
            return
        self._write(inst.dest, self.memory.get(addr))

    def _apply_store(self, inst: Instruction) -> None:
        addr = self._effective_addr(inst)
        if addr is None:
            # Could alias any tracked word: forget all known memory.
            self.memory.clear()
            return
        if layout.is_mmio(addr):
            return  # device writes don't touch memory
        bank = "f" if inst.op is Op.FSW else "i"
        value: Value | None
        if bank == "i":
            value = self.int_regs.get(inst.rt)
        else:
            value = self.fp_regs.get(inst.rt)
        if value is None:
            self.memory.pop(addr, None)
        else:
            self.memory[addr] = value

    # -- merging and digests -------------------------------------------------------

    def intersect(self, other: "ValueStore") -> None:
        """Keep only facts on which both stores agree (sound join)."""
        for mine, theirs in (
            (self.int_regs, other.int_regs),
            (self.fp_regs, other.fp_regs),
            (self.memory, other.memory),
        ):
            for key in [k for k, v in mine.items() if theirs.get(k) != v]:
                del mine[key]  # type: ignore[arg-type]

    def digest(self, relevant: RegisterSlice | None = None) -> ValueDigest:
        """Hashable fingerprint of the tracked facts.

        Args:
            relevant: When given (the branch-relevance slice,
                :mod:`repro.wcet.mc.slicing`, split by
                :func:`register_slice`), only registers that can still
                influence control flow enter the digest, so states that
                differ in dead values merge.  Memory is always digested
                in full (aliasing makes a sound memory slice coarse, and
                tracked memory is sparse).
        """
        int_regs, fp_regs = self.int_regs, self.fp_regs
        if relevant is None:
            ints = tuple(sorted(int_regs.items()))
            fps = tuple(sorted(fp_regs.items()))
        else:
            int_nums, fp_nums = relevant
            ints = tuple((n, int_regs[n]) for n in int_nums if n in int_regs)
            fps = tuple((n, fp_regs[n]) for n in fp_nums if n in fp_regs)
        return (ints, fps, tuple(sorted(self.memory.items())))


def register_slice(relevant: frozenset[RegRef]) -> RegisterSlice:
    """Split a relevance set into sorted int and fp register numbers.

    :meth:`ValueStore.digest` reads registers through the split, which
    gives the same digest as filtering every register through
    ``relevant`` (other references, such as the memory token, drop out).
    """
    return (
        tuple(sorted(n for bank, n in relevant if bank == "i")),
        tuple(sorted(n for bank, n in relevant if bank == "f")),
    )

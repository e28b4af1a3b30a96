"""Decoded-instruction representation for RTP-32.

:class:`Instruction` is the unit that flows through both pipeline simulators
and the static analyzer.  Register operands are exposed uniformly as
``(bank, number)`` pairs, where ``bank`` is ``"i"`` (integer) or ``"f"``
(floating point), so pipeline hazard logic never needs per-opcode special
cases.

Instances are immutable once built.  A :class:`~repro.isa.program.Program`
creates one per instruction word, through :func:`repro.isa.encoding.decode`;
the opcode-static attributes and the operand shape come from per-opcode
tables built once at import.
"""

from __future__ import annotations

from typing import Callable

from repro.isa.opcodes import (
    BRANCH_OPS,
    DIRECT_JUMP_OPS,
    INDIRECT_JUMP_OPS,
    INFO,
    LOAD_OPS,
    STORE_OPS,
    Fmt,
    FuClass,
    Op,
    OpInfo,
)
from repro.isa.registers import RA

IntReg = int
RegRef = tuple[str, int]  # ("i" | "f", register number)


class Instruction:
    """One decoded RTP-32 instruction.

    Attributes:
        op: The :class:`~repro.isa.opcodes.Op`.
        rd, rs, rt: Register slots.  For FP instructions the same slots hold
            fd/fs/ft respectively; use :attr:`sources` / :attr:`dest` for
            bank-aware access.
        shamt: Shift amount for immediate shifts.
        imm: Sign-interpreted 16-bit immediate (branch offsets in words).
        target: 26-bit jump target field for J-format.
        addr: Instruction address once placed in a program image (else None).
    """

    __slots__ = (
        "op", "rd", "rs", "rt", "shamt", "imm", "target", "addr",
        "sources", "dest", "info", "latency", "is_load", "is_store",
        "is_branch", "is_direct_jump", "is_indirect_jump", "is_control",
        "is_mem", "fu_class",
    )

    def __init__(
        self,
        op: Op,
        rd: int = 0,
        rs: int = 0,
        rt: int = 0,
        shamt: int = 0,
        imm: int = 0,
        target: int = 0,
        addr: int | None = None,
    ):
        self.op = op
        self.rd = rd
        self.rs = rs
        self.rt = rt
        self.shamt = shamt
        self.imm = imm
        self.target = target
        self.addr = addr
        (
            self.info, self.latency, self.fu_class, self.is_load,
            self.is_store, self.is_mem, self.is_branch, self.is_direct_jump,
            self.is_indirect_jump, self.is_control, shape,
        ) = _STATIC[op]
        self.sources, self.dest = shape(rd, rs, rt)

    def with_addr(self, addr: int) -> "Instruction":
        """Return a copy of this instruction placed at ``addr``."""
        return Instruction(
            self.op, self.rd, self.rs, self.rt,
            self.shamt, self.imm, self.target, addr,
        )

    def branch_target(self) -> int:
        """Absolute target address of a conditional branch.

        Branch offsets are in words relative to the *next* instruction,
        matching MIPS semantics.
        """
        assert self.is_branch and self.addr is not None
        return self.addr + 4 + (self.imm << 2)

    def jump_target(self) -> int:
        """Absolute target address of a direct jump (J-format)."""
        assert self.is_direct_jump and self.addr is not None
        return ((self.addr + 4) & 0xF0000000) | (self.target << 2)

    def is_backward_branch(self) -> bool:
        """True when this conditional branch targets a lower address.

        The VISA's static predictor predicts backward branches taken and
        forward branches not-taken (BTFN).
        """
        assert self.is_branch
        return self.imm < 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.isa.disassembler import disassemble_instruction

        where = f"@{self.addr:#x}" if self.addr is not None else ""
        return f"<{disassemble_instruction(self)}{where}>"


OperandShape = Callable[
    [int, int, int], tuple[tuple[RegRef, ...], RegRef | None]
]


def _operand_shape(op: Op) -> OperandShape:
    """``(rd, rs, rt) -> (sources, dest)`` register references for ``op``."""
    info = INFO[op]
    fmt = info.fmt
    syntax = info.syntax

    if op is Op.HALT or op is Op.J:
        return lambda rd, rs, rt: ((), None)
    if op is Op.JAL:
        return lambda rd, rs, rt: ((), ("i", RA))
    if op is Op.JR:
        return lambda rd, rs, rt: ((("i", rs),), None)
    if op is Op.JALR:
        return lambda rd, rs, rt: ((("i", rs),), ("i", rd))
    if op is Op.LUI:
        return lambda rd, rs, rt: ((), ("i", rt))
    if op in BRANCH_OPS:
        if op in (Op.BLEZ, Op.BGTZ):
            return lambda rd, rs, rt: ((("i", rs),), None)
        return lambda rd, rs, rt: ((("i", rs), ("i", rt)), None)
    if op is Op.LW:
        return lambda rd, rs, rt: ((("i", rs),), ("i", rt))
    if op is Op.FLW:
        return lambda rd, rs, rt: ((("i", rs),), ("f", rt))
    if op is Op.SW:
        return lambda rd, rs, rt: ((("i", rs), ("i", rt)), None)
    if op is Op.FSW:
        return lambda rd, rs, rt: ((("i", rs), ("f", rt)), None)
    if fmt is Fmt.F:
        if op in (Op.FEQ, Op.FLT_, Op.FLE):
            return lambda rd, rs, rt: ((("f", rs), ("f", rt)), ("i", rd))
        if op is Op.ITOF:
            return lambda rd, rs, rt: ((("i", rs),), ("f", rd))
        if op is Op.FTOI:
            return lambda rd, rs, rt: ((("f", rs),), ("i", rd))
        if "ft" in syntax:  # 3-operand FP arithmetic
            return lambda rd, rs, rt: ((("f", rs), ("f", rt)), ("f", rd))
        return lambda rd, rs, rt: ((("f", rs),), ("f", rd))  # 2-operand FP
    if fmt is Fmt.I:  # immediate ALU
        return lambda rd, rs, rt: ((("i", rs),), ("i", rt))
    # R-type ALU / shifts.
    if "shamt" in syntax:
        return lambda rd, rs, rt: ((("i", rt),), ("i", rd))
    if syntax == "rd,rt,rs":  # variable shifts
        return lambda rd, rs, rt: ((("i", rt), ("i", rs)), ("i", rd))
    return lambda rd, rs, rt: ((("i", rs), ("i", rt)), ("i", rd))


#: info, latency, fu_class, is_load, is_store, is_mem, is_branch,
#: is_direct_jump, is_indirect_jump, is_control, operand shape.
_Static = tuple[
    OpInfo, int, FuClass, bool, bool, bool, bool, bool, bool, bool,
    OperandShape,
]


def _static(op: Op) -> _Static:
    """Opcode-static :class:`Instruction` attributes, in ``__init__`` order."""
    info = INFO[op]
    is_load = op in LOAD_OPS
    is_store = op in STORE_OPS
    is_branch = op in BRANCH_OPS
    is_direct_jump = op in DIRECT_JUMP_OPS
    is_indirect_jump = op in INDIRECT_JUMP_OPS
    return (
        info, info.latency, info.cls, is_load, is_store, is_load or is_store,
        is_branch, is_direct_jump, is_indirect_jump,
        is_branch or is_direct_jump or is_indirect_jump, _operand_shape(op),
    )


#: Op -> opcode-static attributes and operand shape, built once so that
#: constructing an instruction does one table lookup per opcode.
_STATIC: dict[Op, _Static] = {op: _static(op) for op in Op}


#: Latency classes that keep the single VISA function unit busy for more
#: than one cycle (structural hazard source in the in-order pipeline).
MULTI_CYCLE_CLASSES = frozenset(
    {
        FuClass.IMUL,
        FuClass.IDIV,
        FuClass.FPADD,
        FuClass.FPMUL,
        FuClass.FPDIV,
        FuClass.FPSQRT,
        FuClass.FPCMP,
        FuClass.CONV,
    }
)

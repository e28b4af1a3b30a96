"""Per-instruction plan metadata for the block compiler.

Each decoded instruction is summarized, once at program load, into a
flat tuple the block emitters in :mod:`repro.isa.blockjit` read: its
*kind* (so an emitter branches once on an int instead of testing
``is_branch`` / ``is_mem`` / ``result.target is None``), its timing
register keys, its architectural write target, and its statically-known
control targets.  The plan holds no executable code: the emitters turn
each entry into Python source, and :func:`repro.isa.semantics.execute`
stays the reference semantics both cores' ``run_reference`` loops use.

Plan entry layout (one tuple per instruction, in address order)::

    (kind, src_keys, dkey, wbank, dnum, nsrc, lat, npc, starget, ptaken,
     inst)

    kind     one of the K_* constants below
    src_keys timing source-register keys (int reg n -> n, fp reg n -> 32+n)
    dkey     timing destination key (includes r0, like the reference
             timing model) or -1 when the instruction has no destination
    wbank    architectural write target: 0 none (or int r0), 1 int, 2 fp
    dnum     destination register number for the architectural write
    nsrc     len(inst.sources), for the regread event counter
    lat      execution latency in cycles
    npc      inst.addr + 4 (fall-through PC; also the JAL/JALR link value)
    starget  statically-known control target: branch taken-target or
             direct-jump target; -1 when not statically known
    ptaken   BTFN static prediction for conditional branches
    inst     the decoded Instruction (operands, opcode and diagnostics)
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op

# Instruction kinds, dispatched on by the block emitters.
K_ALU = 0
K_LOAD = 1
K_STORE = 2
K_BRANCH = 3
K_JUMP = 4
K_INDIRECT = 5
K_HALT = 6

FastInst = tuple  # see module docstring for the field layout


def _key(ref: tuple[str, int]) -> int:
    """Flatten a ("i"|"f", num) register reference to one array index."""
    bank, num = ref
    return num if bank == "i" else 32 + num


def compile_inst(inst: Instruction) -> FastInst:
    """Compile one placed instruction into its fast-plan entry."""
    src_keys = tuple(_key(ref) for ref in inst.sources)
    dest = inst.dest
    dkey = _key(dest) if dest is not None else -1
    wbank = 0
    dnum = 0
    if dest is not None:
        bank, num = dest
        if bank == "i":
            if num != 0:
                wbank, dnum = 1, num
        else:
            wbank, dnum = 2, num
    nsrc = len(src_keys)
    lat = inst.latency
    npc = inst.addr + 4

    starget, ptaken = -1, False
    if inst.op is Op.HALT:
        kind = K_HALT
    elif inst.is_branch:
        kind = K_BRANCH
        starget, ptaken = inst.branch_target(), inst.is_backward_branch()
    elif inst.is_direct_jump:  # J / JAL (JAL links npc via wbank/dnum)
        kind, starget = K_JUMP, inst.jump_target()
    elif inst.is_indirect_jump:  # JR / JALR
        kind = K_INDIRECT
    elif inst.is_load:
        kind = K_LOAD
    elif inst.is_store:
        kind = K_STORE
    else:
        kind = K_ALU
    return (kind, src_keys, dkey, wbank, dnum, nsrc, lat, npc, starget,
            ptaken, inst)


def build_plan(instructions: list[Instruction]) -> list[FastInst]:
    """Compile a program's decoded instructions into a fast plan."""
    return [compile_inst(inst) for inst in instructions]


__all__ = [
    "K_ALU", "K_LOAD", "K_STORE", "K_BRANCH", "K_JUMP", "K_INDIRECT",
    "K_HALT", "FastInst", "compile_inst", "build_plan",
]

"""Basic-block JIT: compile straight-line runs of the fast plan to Python.

Both cores' only fast path.  This module groups the per-instruction
plan (:mod:`repro.isa.fastexec`) into basic blocks (boundaries from
:func:`repro.wcet.cfg.build_cfg`, with a linear fallback when the CFG
analysis rejects a program) and emits one specialized Python function
*per block* via ``compile()``/``exec``.

Within a generated block:

* register values live in locals (promoted on first read, rebound on
  write) and are spilled back to the architectural arrays only when the
  block exits,
* the in-order timing recurrence and the OOO event-driven constraint
  system are emitted inline with SSA-style names, mirroring
  :func:`repro.pipelines.inorder_engine.advance` and the reference
  loops' bookkeeping,
* event counters whose increments are statically known (fetch, regread,
  regwrite, retired) become literal offsets baked into the exit writes,
  and
* every exit before the last instruction (the watchdog expiring after an
  instruction, or an instruction faulting: an MMIO access the device
  rejects, a misaligned or text-range data access, DIV/REM/FDIV/FSQRT/
  FTOI raising) is one line that records its exit position and leaves
  through the block's single epilogue, which writes the state as of that
  position from a per-block constant table (see "the shared exit
  epilogue" below).

The contract is *bit-identical observable state* with the cores'
``run_reference``: architectural registers and memory, cycle counts,
cache statistics, event counters, watchdog/exception cycles, and fault
side effects, the pipeline's view of a faulting instruction included.
One documented exclusion: a ``TypeError`` raised by arithmetic on a
float-contaminated integer register (already undefined behaviour in the
reference) propagates without the epilogue and may leave
partially-updated batched state.

Each block is compiled on its own, so a build never holds a whole
table's source or syntax tree at once.  The compiled block table is
memoized on the :class:`~repro.isa.program.Program` and persisted as a
``blockjit`` entry of :mod:`repro.snapshot.runcache`
(``.repro_cache/blockjit-<engine>-<key>.marshal``) whose value is the
per-block ``(start, name, length, code)`` records.  The key hashes the
program digest, cache geometry, pipeline parameters, ``CODEGEN_VERSION``,
a digest of the source the emitted code depends on
(:data:`_CODEGEN_SOURCES`, so an emitter edit made without a version bump
still misses), ``FORMAT_VERSION`` and the interpreter's cache tag
(marshal is interpreter-specific, so another Python never reads the
entry and simply rebuilds it); an unreadable entry counts as a miss and
is rebuilt.

Every segment runs here.  A *bounded* segment (an instruction budget, or
breakpoints that may fall inside a block) runs a truncated copy of the
block it stops in (:meth:`BlockTable.cut`), compiled on first use and
kept in memory only; the dispatchers decide this per block from the
call alone, with no tier switch.
"""

from __future__ import annotations

import hashlib
import importlib
import re
import sys
from dataclasses import astuple
from functools import lru_cache
from types import CodeType
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple

from repro.errors import AnalysisError, ReproError, SimulationError
from repro.isa import layout
from repro.isa.fastexec import (
    K_ALU,
    K_BRANCH,
    K_HALT,
    K_INDIRECT,
    K_JUMP,
    K_LOAD,
    K_STORE,
)
from repro.isa.opcodes import LATENCY, Op
from repro.isa.semantics import _fdiv, _fsqrt, _trunc_div, _trunc_rem
from repro.pipelines.inorder_engine import BRANCH_PENALTY, _FRONT_DEPTH
from repro.wcet.cfg import build_cfg

if TYPE_CHECKING:
    from repro.isa.program import Program

#: Bump when the emitted code changes shape; stale disk entries miss.
#: 3: the OOO disk key lost its ``sched`` field when the event layouts
#: became the only ones, so older (scan-layout) entries must not load.
#: 4: one shared exit epilogue per block; st carries the watchdog limit
#: ``wl`` where it carried the ``wd`` flag.
#: 5: timing clamps the in-order recurrence proves dead are not emitted,
#: nor (on either engine) the ``ready[0]`` clamp of a program that never
#: writes r0.
#: 6: OOO width maps are lists indexed by relative cycle, the occupancy
#: rings are read at constant offsets and written at block exit (their
#: st cursors are gone), OOO blocks are capped at the smallest ring, and
#: OOO ALU results wrap to 32 bits only when out of range.
CODEGEN_VERSION = 6

#: Modules whose source shapes the emitted code or the dispatchers' ``st``
#: layout: the emitters here, and the constants and helpers they inline.
_CODEGEN_SOURCES = (
    "repro.isa.blockjit",
    "repro.isa.fastexec",
    "repro.isa.layout",
    "repro.isa.semantics",
    "repro.pipelines.inorder_engine",
)

_M = 0xFFFFFFFF
_S = 0x80000000
_MMIO = layout.MMIO_BASE
_REDIRECT_OFFSET = BRANCH_PENALTY - _FRONT_DEPTH + 1
_RUNAWAY = 200_000_000

_CONTROL_KINDS = (K_BRANCH, K_JUMP, K_INDIRECT, K_HALT)

BlockFn = Callable[..., Any]
BlockEntry = tuple[BlockFn, int]

# --- expression text builders (must match repro.isa.semantics exactly) -------


class _Regs:
    """Register promotion tracker: flat key (int n -> n, fp n -> 32+n).

    Each register is represented by TEXT: a stable local name (``R5`` /
    ``F5``), an int literal (constant-folded writes), or its home array
    slot before first use.  Reads of ``r0`` fold to ``0``.  Every write
    records a *version* (the first exit position that sees it, and its
    value) so the block's exit epilogue can spill each register as it
    stood at any exit (:meth:`exit_spills`).
    """

    def __init__(self, lines: list[str], rows: list[tuple]) -> None:
        self._lines = lines
        # The block's exit positions so far: a write is seen by every
        # position allocated after it.
        self._rows = rows
        # key -> ("name", text) | ("const", value)
        self._val: dict[int, tuple[str, Any]] = {}
        # key -> [(first exit position that sees it, local name or int
        # constant)], in write order.
        self.versions: dict[int, list[tuple[int, str | int]]] = {}

    @staticmethod
    def _home(key: int) -> str:
        return f"ir[{key}]" if key < 32 else f"fr[{key - 32}]"

    @staticmethod
    def name(key: int) -> str:
        return f"R{key}" if key < 32 else f"F{key - 32}"

    def read(self, key: int, ind: str) -> str:
        """Text for the current value of ``key`` (promoting on first read)."""
        if key == 0:
            return "0"
        state = self._val.get(key)
        if state is None:
            name = self.name(key)
            self._lines.append(f"{ind}{name} = {self._home(key)}")
            self._val[key] = ("name", name)
            return name
        if state[0] == "const":
            value = state[1]
            return f"({value})" if value < 0 else str(value)
        return str(state[1])

    def read_const(self, key: int) -> int | None:
        """The statically-known int value of ``key``, if any (r0 -> 0)."""
        if key == 0:
            return 0
        state = self._val.get(key)
        if state is not None and state[0] == "const":
            return int(state[1])
        return None

    def _record(self, key: int, value: str | int) -> None:
        start = len(self._rows)
        versions = self.versions.setdefault(key, [])
        if versions and versions[-1][1] == value:
            return  # a local name always holds its latest value
        if versions and versions[-1][0] == start:
            versions.pop()  # overwritten before any exit could see it
        versions.append((start, value))

    def write_name(self, key: int) -> str:
        """Local name to assign ``key``'s new value into (marks dirty).

        Call it after the instruction's fault sites: an exit there must
        still see the register's previous value.
        """
        name = self.name(key)
        self._val[key] = ("name", name)
        self._record(key, name)
        return name

    def write_const(self, key: int, value: int) -> None:
        """Record a constant write (no code emitted until an exit)."""
        self._val[key] = ("const", value)
        self._record(key, value)

    def spill_lines(self, ind: str) -> list[str]:
        """Home-array writebacks of every written register's final value."""
        return [
            f"{ind}{self._home(key)} = {self.versions[key][-1][1]}"
            for key in sorted(self.versions)
        ]

    def exit_spills(self) -> tuple[tuple[int, int, str | int], ...]:
        """The spill table of the block's exits: ``(key, first exit
        position that sees it, local name or constant)`` for every
        register version some exit sees, each register's in write
        order (so at position ``k`` the last version with first <= k
        wins; see :func:`_spill`)."""
        return tuple(
            (key, start, value)
            for key in sorted(self.versions)
            for start, value in self.versions[key]
            if start < len(self._rows)
        )


#: ALU ops whose generated expression can raise and therefore need a
#: fault site (``k = ...``) before evaluation.
_MAY_RAISE_OPS = frozenset({Op.DIV, Op.REM, Op.FDIV, Op.FSQRT, Op.FTOI})

#: Pure integer ALU ops safe to constant-fold at codegen time by
#: evaluating the *generated expression itself* (so folded values are
#: identical to runtime values by construction).
_FOLDABLE_OPS = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.NOR, Op.SLT,
    Op.SLTU, Op.SLL, Op.SRL, Op.SRA, Op.SLLV, Op.SRLV, Op.SRAV,
    Op.ADDI, Op.SLTI, Op.SLTIU, Op.ANDI, Op.ORI, Op.XORI, Op.LUI,
})

_FOLD_GLOBALS = {"_M": _M, "_S": _S, "__builtins__": {}}


def _alu_expr(inst: Any, regs: _Regs, ind: str) -> tuple[str, bool]:
    """(expression text, may_raise) for a K_ALU instruction.

    The text computes what :mod:`repro.isa.semantics` computes for the
    opcode, with register references replaced by the tracker's current
    text; ``((x + _S) & _M) - _S`` is ``to_s32(x)`` inlined.
    """
    op = inst.op

    def ri(num: int) -> str:
        return regs.read(num, ind)

    def rf(num: int) -> str:
        return regs.read(32 + num, ind)

    s, t = inst.rs, inst.rt
    if op is Op.ADD:
        return f"(({ri(s)} + {ri(t)} + _S) & _M) - _S", False
    if op is Op.SUB:
        return f"(({ri(s)} - {ri(t)} + _S) & _M) - _S", False
    if op is Op.MUL:
        return f"(({ri(s)} * {ri(t)} + _S) & _M) - _S", False
    if op is Op.AND:
        return f"((({ri(s)} & {ri(t)}) + _S) & _M) - _S", False
    if op is Op.OR:
        return f"((({ri(s)} | {ri(t)}) + _S) & _M) - _S", False
    if op is Op.XOR:
        return f"((({ri(s)} ^ {ri(t)}) + _S) & _M) - _S", False
    if op is Op.DIV:
        return f"((_trunc_div({ri(s)}, {ri(t)}) + _S) & _M) - _S", True
    if op is Op.REM:
        return f"((_trunc_rem({ri(s)}, {ri(t)}) + _S) & _M) - _S", True
    if op is Op.NOR:
        return f"((~({ri(s)} | {ri(t)}) + _S) & _M) - _S", False
    if op is Op.SLT:
        return f"1 if {ri(s)} < {ri(t)} else 0", False
    if op is Op.SLTU:
        return f"1 if ({ri(s)} & _M) < ({ri(t)} & _M) else 0", False
    if op is Op.SLL:
        return f"(((({ri(t)} & _M) << {inst.shamt}) + _S) & _M) - _S", False
    if op is Op.SRL:
        return f"(((({ri(t)} & _M) >> {inst.shamt}) + _S) & _M) - _S", False
    if op is Op.SRA:
        return f"((({ri(t)} + _S) & _M) - _S) >> {inst.shamt}", False
    if op is Op.SLLV:
        return f"(((({ri(t)} & _M) << ({ri(s)} & 0x1F)) + _S) & _M) - _S", False
    if op is Op.SRLV:
        return f"(((({ri(t)} & _M) >> ({ri(s)} & 0x1F)) + _S) & _M) - _S", False
    if op is Op.SRAV:
        return f"((({ri(t)} + _S) & _M) - _S) >> ({ri(s)} & 0x1F)", False
    if op is Op.ADDI:
        return f"(({ri(s)} + {inst.imm} + _S) & _M) - _S", False
    if op is Op.SLTI:
        return f"1 if {ri(s)} < {inst.imm} else 0", False
    if op is Op.SLTIU:
        return f"1 if ({ri(s)} & _M) < {inst.imm & _M} else 0", False
    if op is Op.ANDI:
        return f"{ri(s)} & {inst.imm & 0xFFFF}", False
    if op is Op.ORI:
        return f"((({ri(s)} & _M) | {inst.imm & 0xFFFF}) + _S & _M) - _S", False
    if op is Op.XORI:
        return f"((({ri(s)} & _M) ^ {inst.imm & 0xFFFF}) + _S & _M) - _S", False
    if op is Op.LUI:
        return str((((inst.imm & 0xFFFF) << 16) + _S & _M) - _S), False
    if op is Op.FADD:
        return f"{rf(s)} + {rf(t)}", False
    if op is Op.FSUB:
        return f"{rf(s)} - {rf(t)}", False
    if op is Op.FMUL:
        return f"{rf(s)} * {rf(t)}", False
    if op is Op.FDIV:
        return f"_fdiv({rf(s)}, {rf(t)})", True
    if op is Op.FSQRT:
        return f"_fsqrt({rf(s)})", True
    if op is Op.FABS:
        return f"abs({rf(s)})", False
    if op is Op.FNEG:
        return f"-{rf(s)}", False
    if op is Op.FMOV:
        return f"{rf(s)}", False
    if op is Op.FEQ:
        return f"1 if {rf(s)} == {rf(t)} else 0", False
    if op is Op.FLT_:
        return f"1 if {rf(s)} < {rf(t)} else 0", False
    if op is Op.FLE:
        return f"1 if {rf(s)} <= {rf(t)} else 0", False
    if op is Op.ITOF:
        return f"float({ri(s)})", False
    if op is Op.FTOI:
        return f"((int({rf(s)}) + _S) & _M) - _S", True
    raise AssertionError(f"unhandled ALU op {op}")


#: ``to_s32(E)`` as :func:`_alu_expr` writes it (group 1: ``E``).
_TO_S32 = re.compile(r"\(\((.+) \+ _S\) & _M\) - _S")


def _alu_fold(inst: Any, regs: _Regs) -> int | None:
    """Constant-fold a pure int ALU op when every register source is known.

    Folds by evaluating the generated expression with source texts that
    are themselves literals, so the folded value is identical to what
    the emitted code would compute.
    """
    if inst.op not in _FOLDABLE_OPS:
        return None
    for bank, num in inst.sources:
        key = num if bank == "i" else 32 + num
        if regs.read_const(key) is None:
            return None
    expr, _ = _alu_expr(inst, regs, "")  # const reads: no promotion emitted
    return _fold_value(expr)


@lru_cache(maxsize=4096)
def _fold_value(expr: str) -> int:
    """The value of a literal-only generated expression (memoized: the
    same folds recur across blocks and programs)."""
    return int(eval(expr, dict(_FOLD_GLOBALS)))  # noqa: S307 - own codegen


def _branch_expr(inst: Any, regs: _Regs, ind: str) -> str:
    """Condition text for a K_BRANCH instruction."""
    op = inst.op
    a = regs.read(inst.rs, ind)
    if op is Op.BLEZ:
        return f"{a} <= 0"
    if op is Op.BGTZ:
        return f"{a} > 0"
    b = regs.read(inst.rt, ind)
    if op is Op.BEQ:
        return f"{a} == {b}"
    if op is Op.BNE:
        return f"{a} != {b}"
    if op is Op.BLT:
        return f"{a} < {b}"
    return f"{a} >= {b}"


def _wrap_s32(value: int) -> int:
    return ((value + _S) & _M) - _S


# --- the shared exit epilogue ------------------------------------------------
#
# A block can leave before its last instruction at a *mid-block exit*:
# the watchdog expiring after instruction i, or instruction i faulting (a
# misaligned or text-range data access, an MMIO access the device
# rejects, or a DIV/REM/FDIV/FSQRT/FTOI that raises).  Each such exit is
# an *exit position* k, numbered in block order, and the code at it is
# one line: ``if y3 >= wl: k = 5; raise _Watchdog`` after an instruction,
# or ``k = 5`` ahead of an operation that can raise.  The block body runs
# inside ``try:``, and one ``except`` epilogue per block hands its
# locals, k and a constant *exit table* to the engine's exit routine
# (:func:`_inorder_exit` / :func:`_ooo_exit`), which writes the state as
# of position k; the epilogue then returns "w" or re-raises the fault.
# The exit table holds one row per position (counter offsets and the
# locals that hold position-dependent state) and the spill table of
# :meth:`_Regs.exit_spills`, each row and spill one space-separated
# string (a nested tuple constant costs several times more to compile).
#
# A fault at instruction i leaves the state run_reference leaves: the
# instruction's fetch (and, for a load or store, its cache access and,
# on the complex core, its pass through the pipeline) done, nothing else
# of it.  The watchdog limit ``wl`` (st slot 20 in-order, 21 OOO) is the
# expiry cycle relative to the segment's timing base, or _NEVER when the
# segment does not honour the watchdog; block code recomputes it after
# every MMIO store.

#: Watchdog limit of a segment that never takes a watchdog exit.
_NEVER = 1 << 62

#: When a segment honours the watchdog (recomputed after an MMIO store).
_WD_ARMED = "honor and not mmio.exceptions_masked and mmio._wd_enabled"


class _Watchdog(Exception):
    """Raised by block code to leave through its epilogue on watchdog
    expiry (the epilogue returns "w")."""


#: Exceptions the epilogue serves: its watchdog exit and every fault an
#: operation preceded by ``k = ...`` can raise.  Anything else (a bug, or
#: arithmetic on a float-contaminated integer register) propagates
#: without the state write.
_EXITS = (_Watchdog, ReproError, ArithmeticError, ValueError)


def _spill(L: dict[str, Any], k: int, spills: tuple[str, ...]) -> None:
    """Write back every register the block wrote, as of exit position
    ``k`` (``L``: the block's locals; ``spills``: its spill table, each
    entry "register key, first position, local name or constant")."""
    ir, fr = L["ir"], L["fr"]
    for spill in spills:
        key, first, value = spill.split()
        if k >= int(first):
            value = L[value] if value[0].isalpha() else int(value)
            if int(key) < 32:
                ir[int(key)] = value
            else:
                fr[int(key) - 32] = value


def _inorder_exit(
    st: list[Any], k: int, L: dict[str, Any], table: tuple
) -> None:
    """The in-order epilogue: write ``st`` as of exit position ``k``.

    ``table`` is ``(start pc, I-cache block shift, I-cache sets, rows,
    spills)``; a row lists instructions executed, fetched, register
    reads, register writes, pending guaranteed I-cache hits, then the
    locals holding the timing vector.
    """
    start, ishift, insets, rows, spills = table
    row = rows[k].split()
    kn, kf, kr, kw, kp = map(int, row[:5])
    _spill(L, k, spills)
    st[:] = [L[name] for name in _INORDER_SLOTS]
    st[:8] = [L[name] for name in row[5:]]
    if kp:
        # The pending hits are all on the line of the last fetch.
        blk = (start + 4 * kf - 4) >> ishift
        L["isets"][blk % insets][blk] = st[8] + kp - 1
        st[8] += kp
        st[10] += kp
    st[14] += kf
    st[15] += kr
    st[16] += kw
    st[18] = start + 4 * kn
    st[19] += kn


def _ooo_exit(st: list[Any], k: int, L: dict[str, Any], table: tuple) -> None:
    """The complex-core epilogue: write ``st`` as of exit position ``k``.

    ``table`` is ``(start pc, rows, spills)``; a row lists instructions
    executed, register reads, register writes, memory operations,
    predictions, then the local holding the committed frontier (for a
    load or store that faults past the commit stage, the one from before
    it).
    """
    start, rows, spills = table
    row = rows[k].split()
    kn, kr, kw, km, kb = map(int, row[:5])
    lc = row[5]
    _spill(L, k, spills)
    st[:] = [L[name] for name in _OOO_SLOTS]
    st[6] = L[lc]
    st[14] += kb
    st[15] += kr
    st[16] += kw
    st[18] += km
    st[19] = start + 4 * kn
    st[20] += kn


def _ctr(name: str, add: int) -> str:
    return f"{name} + {add}" if add else name


def _static_data_fault(g: "_Geometry", addr: int) -> bool:
    """Does a data access at constant non-MMIO ``addr`` fault?"""
    return bool(addr & 3) or g.tbase <= addr < g.text_end


class _Emitter:
    """What both block emitters share: the line buffer, the register
    tracker, and the block's exit positions with their epilogue."""

    #: The engine's exit routine, as named in the exec globals.
    EXIT = ""

    def __init__(self, geom: "_Geometry") -> None:
        self.g = geom
        self.start = 0
        self.lines: list[str] = []
        # One exit-table row per exit position, in block order.
        self.rows: list[tuple] = []
        self.regs = _Regs(self.lines, self.rows)
        # The current instruction's fault position, once allocated.
        self._fault_k: int | None = None

    def emit(self, ind: str, text: str) -> None:
        self.lines.append(ind + text)

    def _max_into(self, ind: str, x: str, e: str,
                  plus_one: bool = False) -> None:
        """``x = max(x, e [+ 1])`` as a compare and a store on the taken
        path only (``e + 1 > x`` is ``e >= x`` on ints)."""
        if plus_one:
            self.emit(ind, f"if {e} >= {x}:")
            self.emit(ind + "    ", f"{x} = {e} + 1")
        else:
            self.emit(ind, f"if {e} > {x}:")
            self.emit(ind + "    ", f"{x} = {e}")

    def _fault_site(self, ind: str, row: tuple) -> None:
        """``k = <position>`` ahead of an operation that can raise; all
        of one instruction's sites share its fault position."""
        if self._fault_k is None:
            self.rows.append(row)
            self._fault_k = len(self.rows) - 1
        self.emit(ind, f"k = {self._fault_k}")

    def _watchdog_check(self, t: str, row: tuple) -> None:
        """Leave through the epilogue when cycle ``t`` reaches ``wl``."""
        self.rows.append(row)
        self.emit(
            "    ", f"if {t} >= wl: k = {len(self.rows) - 1}; raise _Watchdog"
        )

    def _data_check(self, ind: str, a: str, const_addr: int | None,
                    access: str, row: tuple) -> None:
        """Guard a non-MMIO data access: a misaligned or text-range
        address re-performs ``access`` (which raises) at a fault site.
        A constant address is decided here."""
        g = self.g
        if const_addr is None:
            self.emit(ind, f"if {a} & 3 or {g.tbase} <= {a} < {g.text_end}:")
            ind += "    "
        elif not _static_data_fault(g, const_addr):
            return
        self._fault_site(ind, row)
        self.emit(ind, access)

    def _alu(self, ind: str, i: int, inst: Any, dkey: int, wbank: int,
             row: tuple) -> None:
        """A K_ALU instruction: constant-folded when its sources are
        known, else its expression, behind a fault site if it can raise."""
        regs = self.regs
        folded = _alu_fold(inst, regs)
        if folded is not None:
            if wbank != 0:
                regs.write_const(dkey, folded)
            return
        expr, may_raise = _alu_expr(inst, regs, ind)
        if may_raise:
            self._fault_site(ind, row)
        if wbank != 0:
            self._assign(ind, regs.write_name(dkey), expr)
        elif may_raise:
            self.emit(ind, f"v{i} = {expr}")

    def _assign(self, ind: str, name: str, expr: str) -> None:
        """An ALU result's register write."""
        self.emit(ind, f"{name} = {expr}")

    def _address(self, ind: str, i: int, kind: int,
                 inst: Any) -> tuple[str, int | None, str]:
        """A load's or store's address: ``(text, constant value or None,
        store value text)``; a computed address is bound to ``a{i}``."""
        regs = self.regs
        base_c = regs.read_const(inst.rs)
        s_txt = "" if base_c is not None else regs.read(inst.rs, ind)
        vt = ""
        if kind == K_STORE:
            vt = (regs.read(32 + inst.rt, ind) if inst.op is Op.FSW
                  else regs.read(inst.rt, ind))
        if base_c is not None:
            const_addr = (base_c + inst.imm) & _M
            return str(const_addr), const_addr, vt
        self.emit(ind, f"a{i} = ({s_txt} + {inst.imm}) & _M")
        return f"a{i}", None, vt

    def _memory_access(
        self, ind: str, mmio_cond: str, a: str, const_addr: int | None,
        mmio_static: bool | None, row: tuple, mmio: list[str], access: str,
        data: Callable[[str], None],
    ) -> None:
        """A load's or store's side effects at address ``a``: the
        ``mmio`` lines (a fault site) on the MMIO path, else ``access``
        behind :meth:`_data_check`, then ``data(indent)`` (the memory
        image and cache work).  ``mmio_static`` picks the path here;
        ``None`` leaves it to ``mmio_cond`` at run time."""
        def mmio_arm(b: str) -> None:
            self._fault_site(b, row)
            for line in mmio:
                self.emit(b, line)

        def data_arm(b: str, known: int | None) -> None:
            self._data_check(b, a, known, access, row)
            data(b)

        if mmio_static is None:
            self.emit(ind, f"if {mmio_cond}:")
            mmio_arm(ind + "    ")
            self.emit(ind, "else:")
            data_arm(ind + "    ", None)
        elif mmio_static:
            mmio_arm(ind)
        else:
            data_arm(ind, const_addr)

    def _load(
        self, ind: str, i: int, a: str, const_addr: int | None,
        mmio_static: bool | None, dkey: int, wbank: int, row: tuple,
        mmio_at: str, data_at: str,
    ) -> None:
        """A load's register write (``mmio_at``/``data_at``: the cycle
        the device read / the faulting memory read is performed at)."""
        regs = self.regs
        dest = regs.name(dkey) if wbank != 0 else f"v{i}"
        self._memory_access(
            ind, f"o{i}", a, const_addr, mmio_static, row,
            [f"{dest} = mmio_read({a}, {mmio_at})"],
            f"data_read({a}, {data_at})",
            lambda b: self.emit(b, f"{dest} = words_get({a}, 0)"),
        )
        if wbank != 0:
            regs.write_name(dkey)

    def _store(
        self, ind: str, a: str, vt: str, const_addr: int | None,
        mmio_static: bool | None, row: tuple, mmio_at: str, data_at: str,
        origin: str, data: Callable[[str], None],
    ) -> None:
        """A store's side effects; an MMIO store reloads the watchdog
        limit (``origin``: what ``wl`` is relative to, as in
        :func:`_watchdog_limit`)."""
        self._memory_access(
            ind, f"{a} >= {_MMIO}", a, const_addr, mmio_static, row,
            [
                f"mmio_write({a}, {vt}, {mmio_at})",
                "wdx = mmio._wd_expiry",
                f"wl = wdx - {origin} if {_WD_ARMED} else {_NEVER}",
            ],
            f"data_write({a}, {vt}, {data_at})",
            data,
        )

    def _store_words(self, ind: str, a: str, vt: str) -> None:
        """The memory-image store with the reference's int wrap check."""
        try:
            const = int(vt)
        except ValueError:
            self.emit(ind, f"if {vt}.__class__ is int:")
            self.emit(ind, f"    words[{a}] = (({vt} + {_S}) & {_M}) - {_S}")
            self.emit(ind, "else:")
            self.emit(ind, f"    words[{a}] = {vt}")
        else:
            self.emit(ind, f"words[{a}] = {_wrap_s32(const)}")

    def _dcache(self, ind: str, i: int, a: str, hit: list[str],
                miss: list[str]) -> None:
        """Inline D-cache access for address text ``a`` (true LRU, as
        :mod:`repro.memory.cache`), ending its hit and miss arms with
        the ``hit``/``miss`` lines."""
        g = self.g
        b = ind + "    "
        self.emit(ind, f"b{i} = {a} >> {g.dshift}")
        self.emit(ind, f"w = dsets[b{i} % {g.dnsets}]")
        self.emit(ind, f"if b{i} in w:")
        self.emit(b, f"w[b{i}] = dtick")
        self.emit(b, "dtick += 1")
        self.emit(b, "dhits += 1")
        for line in hit:
            self.emit(b, line)
        self.emit(ind, "else:")
        self.emit(b, f"w[b{i}] = dtick")
        self.emit(b, "dtick += 1")
        self.emit(b, f"if len(w) > {g.dassoc}:")
        self.emit(b + "    ", "del w[min(w, key=w.__getitem__)]")
        self.emit(b, "dmiss += 1")
        for line in miss:
            self.emit(b, line)

    def _exit_table(self) -> tuple:
        """The block's constant exit table (see the engine's exit routine)."""
        raise NotImplementedError

    def _rows_and_spills(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The exit rows and the spill table, each entry one string."""
        return (
            tuple(" ".join(map(str, row)) for row in self.rows),
            tuple(" ".join(map(str, spill))
                  for spill in self.regs.exit_spills()),
        )

    def _finish(self, head: list[str]) -> str:
        """The block's source: ``head``, then the body inside the epilogue
        frame when the block has a mid-block exit."""
        body = self.lines
        if not self.rows:
            return "\n".join(head + body) + "\n"
        return "\n".join([
            *head,
            "    try:",
            *("    " + line for line in body),
            "    except _EXITS as e:",
            f"        {self.EXIT}(st, k, locals(), {self._exit_table()!r})",
            "        if e.__class__ is _Watchdog:",
            '            return "w"',
            "        raise",
        ]) + "\n"


# --- in-order block emitter --------------------------------------------------
#
# Generated signature: def _b{pc:x}(ir, fr, ready, st, env)
#
# st (list, 22 slots): 0..7 the fast-timing vector [last_fetch, redirect,
#   ex_free, mem_free, prev_mem_start, front0, front1, front2], 8 itick,
#   9 dtick, 10 ihits, 11 imiss, 12 dhits, 13 dmiss, 14 fetched,
#   15 c_regread, 16 c_regwrite, 17 c_dcache, 18 pc, 19 executed,
#   20 wl (watchdog limit: a watchdog exit follows the first instruction
#   whose mem_end reaches it), 21 wd_expiry.
# env (tuple, 14): words, words.get, icache sets, dcache sets, mmio,
#   mmio.read, mmio.write, machine.data_read, machine.data_write,
#   stall_cycles, timing base, honor_watchdog, gshare-train-or-None,
#   indirect-train-or-None.
#
# Return protocol: int -> next block pc (full block retired); "h" -> halt;
# "w" -> watchdog.  String exits (and faults) leave the authoritative
# pc/executed in st[18]/st[19].  The timing vector is SSA-named per
# instruction, so an exit-table row names the locals that hold it there.
#
# Dead clamps.  Within a block the recurrence is monotone: instruction i
# starts executing at x_i >= max(xe_{i-1} + 1, m_{i-1}) (its ex_free and
# prev_mem_start clamps), and m_i = max(xe_i + 1, u_{i-1} + 1) > x_i,
# where xe, m and u are ex_end, mem_start and mem_end, and u = m for an
# instruction with no D-cache access.  So these clamps can never fire
# and are not emitted:
#
# * mem_free at i (``if u{i-1} >= m{i}``) when u_{i-1} = m_{i-1}:
#   then u_{i-1} = m_{i-1} <= x_i < m_i;
# * prev_mem_start at i (``if m{i-1} > x{i}``) when i-1 dropped its
#   mem_free clamp: then m_{i-1} = xe_{i-1} + 1 <= x_i;
# * ready[r] at i when r's last writer p in the block is a non-load
#   (ready = xe_p + 1 <= x_i) or a load at least two back (ready =
#   u_p + 1 <= m_{p+1} <= m_{i-1} <= x_i); only the load-use clamp at
#   distance 1 stays;
# * ready[0] when no instruction of the program writes r0
#   (``_Geometry.r0_written``): it then stays 0, and every x_i >= 3.

_INORDER_ENV = (
    "words, words_get, isets, dsets, mmio, mmio_read, mmio_write, "
    "data_read, data_write, stall, base, honor, tg, ti"
)
_INORDER_TIMING = ("lf", "rd", "xf", "mf", "pm", "q0", "q1", "q2")
_INORDER_SLOTS = (
    *_INORDER_TIMING, "itick", "dtick", "ihits", "imiss", "dhits", "dmiss",
    "cfe", "crr", "crw", "cdc", "_pc", "nex", "wl", "wdx",
)


class _InOrderEmitter(_Emitter):
    """Emit one in-order basic-block function (see layout comment above)."""

    EXIT = "_inorder_exit"

    def __init__(self, geom: "_Geometry") -> None:
        super().__init__(geom)
        # Semantic timing-state names -> current text (SSA per instruction).
        self.nm = {k: k for k in _INORDER_TIMING}
        self.cfe = 0
        self.crr = 0
        self.crw = 0
        self.nex = 0
        # Statically-guaranteed icache hits, batched: pending tick count and
        # last way-write offset per (set, block).
        self.ip_count = 0
        self.ip_ways: dict[tuple[int, int], int] = {}
        self._last_line: dict[int, int] = {}
        # Did the previous instruction keep its mem_free clamp (so its
        # mem_start may exceed ex_end + 1)?  True at block entry.
        self._m_clamped = True
        # Register key -> first instruction index whose ex_start its
        # ready time provably never exceeds (see "dead clamps" above).
        self._ready_met: dict[int, int] = {} if geom.r0_written else {0: 0}

    # -- helpers --

    def _timing(self) -> str:
        """The locals holding the timing vector now, space-separated."""
        return " ".join(self.nm[slot] for slot in _INORDER_TIMING)

    def _row(self, timing: str) -> tuple:
        return (self.nex, self.cfe, self.crr, self.crw, self.ip_count, timing)

    def _pending_way_lines(self, ind: str) -> list[str]:
        out = []
        for (setk, blk), off in self.ip_ways.items():
            tick = _ctr("itick", off)
            out.append(f"{ind}iw{setk}[{blk}] = {tick}")
        return out

    def _materialize_icache(self, ind: str) -> None:
        """Apply batched guaranteed-hit icache accesses (mutating)."""
        if not self.ip_count:
            return
        self.lines.extend(self._pending_way_lines(ind))
        self.emit(ind, f"itick += {self.ip_count}")
        self.emit(ind, f"ihits += {self.ip_count}")
        self.ip_count = 0
        self.ip_ways.clear()

    def _exit(self, ind: str, pc_expr: str, ret: str) -> None:
        """The exit after the block's last instruction: flush pending
        icache hits, spill, write st, return ``ret``."""
        self.lines.extend(self._pending_way_lines(ind))
        self.lines.extend(self.regs.spill_lines(ind))
        n = self.nm
        self.emit(ind, "st[:] = (" + ", ".join((
            *(n[slot] for slot in _INORDER_TIMING),
            _ctr("itick", self.ip_count), "dtick",
            _ctr("ihits", self.ip_count), "imiss", "dhits", "dmiss",
            _ctr("cfe", self.cfe), _ctr("crr", self.crr),
            _ctr("crw", self.crw), "cdc",
            pc_expr, _ctr("nex", self.nex), "wl", "wdx",
        )) + ")")
        self.emit(ind, f"return {ret}")

    def _exit_table(self) -> tuple:
        return (self.start, self.g.ishift, self.g.insets,
                *self._rows_and_spills())

    def _icache(self, i: int, pc: int, f: str) -> None:
        """Inline I-cache access for the fetch of ``pc`` (ind level 1)."""
        g = self.g
        blk = pc >> g.ishift
        setk = blk % g.insets
        if self._last_line.get(setk) == blk:
            # Guaranteed hit: the set's previous access was this line and
            # nothing touched the set since -> batch tick/hit/way-write.
            self.ip_ways[(setk, blk)] = self.ip_count
            self.ip_count += 1
        else:
            self._materialize_icache("    ")
            w = f"iw{setk}"
            self.emit("    ", f"if {blk} in {w}:")
            self.emit("        ", f"{w}[{blk}] = itick")
            self.emit("        ", "itick += 1")
            self.emit("        ", "ihits += 1")
            self.emit("    ", "else:")
            self.emit("        ", f"{w}[{blk}] = itick")
            self.emit("        ", "itick += 1")
            self.emit("        ", f"if len({w}) > {g.iassoc}:")
            self.emit("            ",
                      f"del {w}[min({w}, key={w}.__getitem__)]")
            self.emit("        ", "imiss += 1")
            self.emit("        ", f"{f} += stall")
            self._last_line[setk] = blk
        self.cfe += 1

    # -- main entry --

    def emit_block(self, pc: int, insts: list[tuple[int, Any]]) -> str:
        """Generate the block function source for ``insts`` at ``pc``."""
        fname = f"_b{pc:x}"
        self.start = pc
        head = [
            f"def {fname}(ir, fr, ready, st, env):",
            f"    ({_INORDER_ENV}) = env",
            f"    ({', '.join(_INORDER_SLOTS)}) = st",
        ]
        g = self.g
        sets_used = sorted({
            (ipc >> g.ishift) % g.insets for ipc, _ in insts
        })
        for setk in sets_used:
            head.append(f"    iw{setk} = isets[{setk}]")
        for idx, (ipc, fi) in enumerate(insts):
            self._inst(idx, ipc, fi, is_last=idx == len(insts) - 1)
        return self._finish(head)

    def _inst(self, i: int, pc: int, fi: Any, is_last: bool) -> None:
        (kind, src_keys, dkey, wbank, dnum, nsrc, lat, npc, starget,
         ptaken, inst) = fi
        n = self.nm
        regs = self.regs
        ind = "    "
        self._fault_k = None
        # A fault here leaves the timing of the previous instruction.
        before = self._timing()

        # -- fetch timing + I-cache (reference lines: fetch clamps then
        # `fetch += icache_extra`, emitted as `f += stall` on the miss arm).
        f = f"f{i}"
        self.emit(ind, f"{f} = {n['lf']} + 1")
        if i == 0:
            # Later fetches follow one in this block that already waited
            # for the redirect (only a block's last instruction sets it).
            self.emit(ind, f"if {n['rd']} > {f}:")
            self.emit(ind + "    ", f"{f} = {n['rd']}")
        self.emit(ind, f"if {n['q0']} > {f}:")
        self.emit(ind + "    ", f"{f} = {n['q0']}")
        self._icache(i, pc, f)

        # -- execute section (specialized expression + dcache access) --
        a = f"a{i}"
        d = f"d{i}"
        const_addr: int | None = None
        mmio_static: bool | None = None
        vt = ""
        if kind == K_ALU:
            self._alu(ind, i, inst, dkey, wbank, self._row(before))
        elif kind == K_LOAD or kind == K_STORE:
            a, const_addr, vt = self._address(ind, i, kind, inst)
            mmio_static = (const_addr >= _MMIO) if const_addr is not None \
                else None
            if mmio_static is True:
                self.emit(ind, f"{d} = 0")
            elif mmio_static is False:
                self.emit(ind, "cdc += 1")
                self._dcache(ind, i, a, [f"{d} = 0"], [f"{d} = stall"])
            elif kind == K_LOAD:
                self.emit(ind, f"o{i} = {a} >= {_MMIO}")
                self.emit(ind, f"if o{i}:")
                self.emit(ind + "    ", f"{d} = 0")
                self.emit(ind, "else:")
                self.emit(ind + "    ", "cdc += 1")
                self._dcache(ind + "    ", i, a, [f"{d} = 0"],
                             [f"{d} = stall"])
            else:
                self.emit(ind, f"if {a} < {_MMIO}:")
                self.emit(ind + "    ", "cdc += 1")
                self._dcache(ind + "    ", i, a, [f"{d} = 0"],
                             [f"{d} = stall"])
                self.emit(ind, "else:")
                self.emit(ind + "    ", f"{d} = 0")
        elif kind == K_BRANCH:
            k = f"k{i}"
            self.emit(ind, f"{k} = {_branch_expr(inst, regs, ind)}")
            self.emit(ind, "if tg is not None:")
            self.emit(ind + "    ", f"tg({pc}, {k})")
        elif kind == K_INDIRECT:
            s_txt = regs.read(inst.rs, ind)
            self.emit(ind, f"g{i} = {s_txt} & _M")
            self.emit(ind, "if ti is not None:")
            self.emit(ind + "    ", f"ti({pc}, g{i})")
        # K_JUMP / K_HALT: nothing to execute.

        # -- timing recurrence (inlined inorder_engine.advance) --
        x = f"x{i}"
        self.emit(ind, f"{x} = {f} + {_FRONT_DEPTH}")
        self._max_into(ind, x, n["xf"], plus_one=True)
        if self._m_clamped:
            self._max_into(ind, x, n["pm"])
        for sk in dict.fromkeys(src_keys):
            met = self._ready_met.get(sk)
            if met is None or i < met:
                self._max_into(ind, x, f"ready[{sk}]")
        if lat == 1:
            xe = x
        else:
            xe = f"e{i}"
            self.emit(ind, f"{xe} = {x} + {lat - 1}")
        m = f"m{i}"
        self.emit(ind, f"{m} = {xe} + 1")
        self._m_clamped = n["mf"] != n["pm"]
        if self._m_clamped:
            self._max_into(ind, m, n["mf"], plus_one=True)
        if kind == K_LOAD or kind == K_STORE:
            if mmio_static is True:
                u = m  # dcache_extra statically 0
            else:
                u = f"u{i}"
                self.emit(ind, f"{u} = {m} + {d}")
        else:
            u = m
        if dkey >= 0:
            src = f"{u} + 1" if kind == K_LOAD else f"{xe} + 1"
            self.emit(ind, f"ready[{dkey}] = {src}")
            self._ready_met[dkey] = i + 2 if kind == K_LOAD else i + 1
        rd_old = n["rd"]
        if kind == K_BRANCH:
            r = f"r{i}"
            pen = f"{xe} + {_REDIRECT_OFFSET}"
            if ptaken:
                self.emit(ind, f"{r} = {rd_old} if k{i} else ({pen})")
            else:
                self.emit(ind, f"{r} = ({pen}) if k{i} else {rd_old}")
            n["rd"] = r
        elif kind == K_INDIRECT:
            r = f"r{i}"
            self.emit(ind, f"{r} = {xe} + {_REDIRECT_OFFSET}")
            n["rd"] = r
        n["q0"], n["q1"], n["q2"] = n["q1"], n["q2"], x
        n["lf"], n["xf"], n["mf"], n["pm"] = f, xe, u, m

        # -- architectural side effects --
        pc_next = str(npc)
        if kind == K_LOAD:
            self._load(
                ind, i, a, const_addr, mmio_static, dkey, wbank,
                self._row(before), f"base + {m}", f"base + {u} + 1",
            )
        elif kind == K_STORE:
            self._store(
                ind, a, vt, const_addr, mmio_static, self._row(before),
                f"base + {m}", f"base + {u} + 1", "base - 1",
                lambda b: self._store_words(b, a, vt),
            )
        elif kind == K_BRANCH:
            pc_next = f"n{i}"
            self.emit(ind, f"{pc_next} = {starget} if k{i} else {npc}")
        elif kind == K_JUMP:
            if wbank == 1:
                regs.write_const(dkey, npc)
            pc_next = str(starget)
        elif kind == K_INDIRECT:
            if wbank == 1:
                regs.write_const(dkey, npc)
            pc_next = f"g{i}"
        # K_ALU: write already folded into the execute section.  K_HALT:
        # pc advances to npc (pc_next default).

        # -- event counters (statically known; exit literals and rows) --
        self.crr += nsrc
        if dkey >= 0:
            self.crw += 1
        self.nex += 1

        # -- exit: halt, or the watchdog check (merged with the block's
        # own exit after its last instruction) --
        if kind == K_HALT:
            self._exit(ind, pc_next, '"h"')
        elif is_last:
            self._exit(ind, pc_next, f'"w" if {u} >= wl else {pc_next}')
        else:
            self._watchdog_check(u, self._row(self._timing()))


# --- OOO block emitter --------------------------------------------------------
#
# Generated signature: def _o{pc:x}(ir, fr, ready, st, env)
#
# st (list, 26 slots): 0 bus_free, 1 fetch_cycle, 2 group_done,
#   3 group_count, 4 group_block, 5 redirect, 6 last_commit (the
#   *committed* value: a load or store that faults has passed the
#   commit stage, and this slot then holds the frontier from before it,
#   exactly like ``committed_now`` in the reference), 7 itick, 8 dtick,
#   9 ihits, 10 imiss, 11 dhits, 12 dmiss, 13 c_group, 14 c_bpred,
#   15 c_regread, 16 c_regwrite, 17 c_dcache, 18 n_mem, 19 pc,
#   20 executed, 21 wl (watchdog limit: a watchdog exit follows the
#   first instruction whose commit reaches it), 22 wd_expiry, 23 ccn
#   (commits at the lc frontier cycle), 24 gh (gshare global history),
#   25 ih (indirect-predictor history).  The dispatcher's finally-flush
#   indexes into it.
# env (tuple, 23): words, words.get, icache sets, dcache sets, mmio,
#   mmio.read, mmio.write, machine.data_read, machine.data_write,
#   stall penalty, timing base, honor_watchdog, the raw gshare table,
#   the indirect table and its .get (the generated code inlines
#   predictor reads/updates), then the per-segment scheduling
#   structures: the dispatch, issue and cache-port width maps ``dis``,
#   ``iss`` and ``port`` (lists of per-cycle slot counts indexed by
#   cycle relative to the timing base), the ROB/IQ/LSQ occupancy rings
#   ``robq``, ``iqq`` and ``lsqq``, and inflight_stores/its .get.
#
# Occupancy rings.  Each ring holds its structure's last N entries
# (commit cycles for the ROB and LSQ, issue cycles for the IQ), oldest
# first, -1 ("not yet full") until N were written.  Instruction i of a
# block waits out ring[i] (the LSQ: its i-th memory operation), the
# oldest live entry; with blocks capped at min(_MAX_BLOCK, ROB, IQ,
# LSQ) instructions (:func:`_block_cap`) that entry was written before
# the block.  Each ring is written once, at the block's last exit: its
# first n entries dropped, the block's n appended.  A mid-block exit
# ends the segment and writes none.
#
# Relative time and the rebase.  Every cycle block code computes is
# relative to the timing base ``base`` (env), and the width maps are
# lists indexed by it.  A list index below 0 wraps silently, so these
# facts, kept by :func:`run_ooo`, are the whole safety case:
#
# * An instruction touches width-map keys below its own commit cycle
#   only (dispatch d < issue s <= completion c < commit), so every key
#   a block touches is at or below the commit frontier lc at its exit.
# * No later probe goes below the floor max(gd, oldest ROB commit) + 1:
#   dispatch starts past gd (which never decreases) and, once the ROB
#   is full, past the oldest ROB commit (ring entries never decrease);
#   issue and port probes start later still.
# * A rebase by that floor shifts every relative cycle by the same
#   amount: bf, fc, gd, rd and lc; wl unless it is _NEVER; ready, the
#   three rings and the inflight_stores values; and base, up.  Every
#   comparison is unchanged and every later key is >= 0.  The width-map
#   keys below the floor, and stores that committed by it (which
#   forward to no later load, whose ex_start is past it), are dropped.
# * Capacity is checked before each block.  At a block's entry every
#   carried cycle is at most max(lc, bf), and one instruction raises
#   that maximum T by at most 6 + issue_to_ex + pen + max(pen, longest
#   latency): its group forms by T + 1 and an I-cache miss fills it by
#   t1 = T + 1 + pen; its probes stop by t1 + 2 (no slot past lc <= T
#   is taken); it completes by t1 + 4 + issue_to_ex + max(pen, latency)
#   (a load miss queues behind bf), commits a cycle later, and a store
#   miss holds the bus pen past a commit <= t1 + 4 + issue_to_ex.  So
#   a block of n instructions touches keys below max(lc, bf) + n times
#   that.  Block length alone is not enough: a store takes the bus at
#   commit without stalling commit, so bf can run arbitrarily far ahead
#   of lc, and a later load miss completes past bf.

_OOO_ENV = (
    "words, words_get, isets, dsets, mmio, mmio_read, mmio_write, "
    "data_read, data_write, pen, base, honor, gt, it, it_get, "
    "dis, iss, port, robq, iqq, lsqq, inflight_stores, get_inflight"
)
_OOO_SLOTS = (
    "bf", "fc", "gd", "gc", "gb", "rd", "lc", "itick", "dtick", "ihits",
    "imiss", "dhits", "dmiss", "cg", "cbp", "crr", "crw", "cdc", "nmem",
    "_pc", "nex", "wl", "wdx", "ccn", "gh", "ih",
)


def _block_cap(engine: str, params: Any) -> int:
    """Most instructions one block of ``engine`` holds."""
    if engine == "inorder":
        return _MAX_BLOCK
    return min(_MAX_BLOCK, params.rob_entries, params.iq_entries,
               params.lsq_entries)


def _fwd_consumers(insts: list[tuple[int, Any]]) -> set[int]:
    """Indices of instructions whose result has an in-block consumer.

    The emitter binds a producer's wakeup value to a local only
    when a later instruction in the same emission unit reads that
    register before it is rewritten (dependency metadata precomputed at
    decode time); producers without consumers write ``ready`` directly.
    """
    last_writer: dict[int, int] = {}
    useful: set[int] = set()
    for idx, (_ipc, fi) in enumerate(insts):
        src_keys, dkey = fi[1], fi[2]
        for sk in src_keys:
            j = last_writer.get(sk)
            if j is not None:
                useful.add(j)
        if dkey >= 0:
            last_writer[dkey] = idx
    return useful


class _OOOEmitter(_Emitter):
    """Emit one complex-mode basic-block function (layout comment above)."""

    EXIT = "_ooo_exit"

    def __init__(self, geom: "_Geometry", params: Any) -> None:
        super().__init__(geom)
        self.p = params
        # Flat register key -> local holding the ready value
        # its in-block producer just computed (consumers read the local
        # instead of ``ready[key]``; the values are equal by construction).
        self._fwd: dict[int, str] = {}
        # Inst indices whose forwarding local has an in-block consumer
        # (precomputed per block by :func:`_fwd_consumers`).
        self._fwd_useful: set[int] = set()
        self.cbp = 0
        self.crr = 0
        self.crw = 0
        self.nex = 0
        self.nmem = 0
        self._prev_blk: int | None = None
        # The fetch-group count, once a group formed at a known point
        # (None while it still depends on the block's entry state).
        self._gc: int | None = None
        # The local holding the commit frontier (SSA per instruction).
        self.lc = "lc"
        # The commit locals of the block's memory operations so far.
        self._mem_commits: list[str] = []

    def _row(self, lc: str) -> tuple:
        return (self.nex, self.crr, self.crw, self.nmem, self.cbp, lc)

    def _exit(self, ind: str, pc_expr: str, ret: str) -> None:
        """The exit after the block's last instruction: write the rings
        (unless it halts, which ends the segment), spill, write st."""
        if ret != '"h"':
            n = range(self.nex)
            for ring, entries in (("robq", [f"l{k}" for k in n]),
                                  ("iqq", [f"s{k}" for k in n]),
                                  ("lsqq", self._mem_commits)):
                if entries:
                    self.emit(ind, f"del {ring}[:{len(entries)}]")
                    self.emit(ind, f"{ring} += ({', '.join(entries)},)")
        self.lines.extend(self.regs.spill_lines(ind))
        self.emit(ind, "st[:] = (" + ", ".join((
            "bf", "fc", "gd", "gc", "gb", "rd", self.lc,
            "itick", "dtick", "ihits", "imiss", "dhits", "dmiss", "cg",
            _ctr("cbp", self.cbp), _ctr("crr", self.crr),
            _ctr("crw", self.crw), "cdc", _ctr("nmem", self.nmem),
            pc_expr, _ctr("nex", self.nex), "wl", "wdx", "ccn", "gh", "ih",
        )) + ")")
        self.emit(ind, f"return {ret}")

    def _exit_table(self) -> tuple:
        return (self.start, *self._rows_and_spills())

    def _assign(self, ind: str, name: str, expr: str) -> None:
        """A ``to_s32(E)`` result as ``E``, wrapped only when it left the
        32-bit range (a float E raises TypeError at the range test, as
        the reference's wrap does)."""
        wrapped = _TO_S32.fullmatch(expr)
        if wrapped is None:
            super()._assign(ind, name, expr)
            return
        self.emit(ind, f"{name} = {wrapped[1]}")
        self.emit(ind, f"if ({name} >> 31) + 1 >> 1:")
        self.emit(ind + "    ", f"{name} = (({name} + _S) & _M) - _S")

    def emit_block(self, pc: int, insts: list[tuple[int, Any]]) -> str:
        fname = f"_o{pc:x}"
        self.start = pc
        head = [
            f"def {fname}(ir, fr, ready, st, env):",
            f"    ({_OOO_ENV}) = env",
            f"    ({', '.join(_OOO_SLOTS)}) = st",
        ]
        self._fwd_useful = _fwd_consumers(insts)
        for idx, (ipc, fi) in enumerate(insts):
            self._inst(idx, ipc, fi, is_last=idx == len(insts) - 1)
        return self._finish(head)

    def _fetch_group(self, i: int, pc: int) -> None:
        """Fetch-group formation (reference 'fetch group' section)."""
        g = self.g
        fw = self.p.fetch_width
        blk = pc >> g.ishift
        setk = blk % g.insets
        ind = "    "
        if i == 0:
            # Block entry: fully dynamic condition.
            self.emit(ind, f"if gc >= {fw} or gb != {blk} or fc < rd:")
            self._group_body(ind + "    ", blk, setk, clamp=True)
        elif self._prev_blk != blk:
            # New cache line mid-block: `blk != group_block` holds (the
            # last group formed on the previous line) and mid-block
            # `fetch_cycle >= redirect` always -> form unconditionally.
            self._group_body(ind, blk, setk, clamp=False)
            self._gc = 0
        elif self._gc is None or self._gc >= fw:
            # Same line as the previous instruction: only width overflow
            # can break the group (decided here once the count is
            # known), and the line is a guaranteed hit (the set's most
            # recent access was this very line).
            b = ind
            if self._gc is None:
                self.emit(ind, f"if gc >= {fw}:")
                b += "    "
            else:
                self._gc = 0
            self.emit(b, "fc += 1")
            self.emit(b, "gc = 0")
            self.emit(b, "cg += 1")
            self.emit(b, f"w = isets[{setk}]")
            self.emit(b, f"w[{blk}] = itick")
            self.emit(b, "itick += 1")
            self.emit(b, "ihits += 1")
            self.emit(b, "gd = fc")
        self.emit(ind, "gc += 1")
        if self._gc is not None:
            self._gc += 1
        self._prev_blk = blk

    def _group_body(self, b: str, blk: int, setk: int, clamp: bool) -> None:
        self.emit(b, "fc += 1")
        if clamp:
            self.emit(b, "if rd > fc:")
            self.emit(b + "    ", "fc = rd")
        self.emit(b, "gc = 0")
        self.emit(b, f"gb = {blk}")
        self.emit(b, "cg += 1")
        self.emit(b, f"w = isets[{setk}]")
        self.emit(b, f"if {blk} in w:")
        self.emit(b + "    ", f"w[{blk}] = itick")
        self.emit(b + "    ", "itick += 1")
        self.emit(b + "    ", "ihits += 1")
        self.emit(b + "    ", "gd = fc")
        self.emit(b, "else:")
        self.emit(b + "    ", f"w[{blk}] = itick")
        self.emit(b + "    ", "itick += 1")
        self.emit(b + "    ", f"if len(w) > {self.g.iassoc}:")
        self.emit(b + "        ", "del w[min(w, key=w.__getitem__)]")
        self.emit(b + "    ", "imiss += 1")
        self.emit(b + "    ", "t = fc")
        self.emit(b + "    ", "if bf > t:")
        self.emit(b + "        ", "t = bf")
        self.emit(b + "    ", "bf = t + pen")
        self.emit(b + "    ", "gd = bf")
        self.emit(b + "    ", "fc = gd")

    def _inst(self, i: int, pc: int, fi: Any, is_last: bool) -> None:
        (kind, src_keys, dkey, wbank, dnum, nsrc, lat, npc, starget,
         ptaken, inst) = fi
        regs = self.regs
        p = self.p
        ind = "    "
        self._fault_k = None
        # The commit frontier as of the previous instruction.
        lc = self.lc

        self._fetch_group(i, pc)

        # -- architectural execute + branch prediction --
        a = f"a{i}"
        const_addr: int | None = None
        mmio_static: bool | None = None
        vt = ""
        if kind == K_ALU:
            self._alu(ind, i, inst, dkey, wbank, self._row(lc))
        elif kind == K_LOAD or kind == K_STORE:
            a, const_addr, vt = self._address(ind, i, kind, inst)
            if const_addr is not None:
                mmio_static = const_addr >= _MMIO
        elif kind == K_BRANCH:
            self.emit(ind, f"k{i} = {_branch_expr(inst, regs, ind)}")
            # Inlined gshare (predictor.py semantics, 2^16 geometry
            # folded at codegen): predict on the pre-update history,
            # saturate the 2-bit counter, shift the outcome in.
            self.emit(ind, f"gi = ({pc >> 2} ^ gh) & 65535")
            self.emit(ind, "gv = gt[gi]")
            self.emit(ind, f"p{i} = gv >= 2")
            self.emit(ind, f"if k{i}:")
            self.emit(ind + "    ", "if gv < 3:")
            self.emit(ind + "        ", "gt[gi] = gv + 1")
            self.emit(ind + "    ", "gh = ((gh << 1) | 1) & 65535")
            self.emit(ind, "else:")
            self.emit(ind + "    ", "if gv:")
            self.emit(ind + "        ", "gt[gi] = gv - 1")
            self.emit(ind + "    ", "gh = (gh << 1) & 65535")
            self.cbp += 1
        elif kind == K_INDIRECT:
            s_txt = regs.read(inst.rs, ind)
            self.emit(ind, f"g{i} = {s_txt} & _M")
            # Inlined indirect-target table (update shifts a taken
            # bit into the history, per predictor.py).
            self.emit(ind, f"ii = ({pc >> 2} ^ ih) & 65535")
            self.emit(ind, f"p{i} = it_get(ii)")
            self.emit(ind, f"it[ii] = g{i}")
            self.emit(ind, "ih = ((ih << 1) | 1) & 65535")
            self.cbp += 1
        # K_JUMP / K_HALT: nothing to execute.

        # -- dispatch (rename, allocate ROB/IQ/LSQ) --
        is_mem = kind == K_LOAD or kind == K_STORE
        d = f"d{i}"
        self.emit(ind, f"{d} = gd + 1")
        # Occupancy clamps: the entry that gates this instruction, or
        # the -1 sentinel (never >= d) while its structure is not full.
        rings = [f"robq[{i}]", f"iqq[{i}]"]
        if is_mem:
            rings.append(f"lsqq[{self.nmem}]")
            self.nmem += 1
        for gate in rings:
            self.emit(ind, f"if {gate} >= {d}:")
            self.emit(ind + "    ", f"{d} = {gate} + 1")
        self.emit(ind, f"while (vd := dis[{d}]) >= {p.dispatch_width}:")
        self.emit(ind + "    ", f"{d} += 1")
        self.emit(ind, f"dis[{d}] = vd + 1")

        # -- issue (wakeup/select) --
        s = f"s{i}"
        self.emit(ind, f"{s} = {d} + 1")
        for sk in dict.fromkeys(src_keys):
            if sk == 0 and not self.g.r0_written:
                continue  # ready[0] stays 0 < s
            fwd = self._fwd.get(sk)
            self._max_into(ind, s, f"ready[{sk}]" if fwd is None else fwd)
        if is_mem:
            self.emit(ind, "while True:")
            self.emit(ind + "    ",
                      f"while (vi := iss[{s}]) >= {p.issue_width}:")
            self.emit(ind + "        ", f"{s} += 1")
            self.emit(ind + "    ", f"t = {s}")
            self.emit(ind + "    ",
                      f"while (vp := port[t]) >= {p.cache_ports}:")
            self.emit(ind + "        ", "t += 1")
            self.emit(ind + "    ", f"if t == {s}:")
            self.emit(ind + "        ", "break")
            self.emit(ind + "    ", f"{s} = t")
            self.emit(ind, f"port[{s}] = vp + 1")
        else:
            self.emit(ind, f"while (vi := iss[{s}]) >= {p.issue_width}:")
            self.emit(ind + "    ", f"{s} += 1")
        self.emit(ind, f"iss[{s}] = vi + 1")
        self.crr += nsrc

        x = f"x{i}"
        if kind == K_LOAD:
            self.emit(ind, f"{x} = {s} + {p.issue_to_ex}")

        # -- execute / memory --
        c = f"c{i}"
        if kind == K_LOAD:
            if mmio_static is True:
                self.emit(ind, f"{c} = {x} + 1")
            elif mmio_static is False:
                self._load_mem_timing(ind, i, a, x, c)
            else:
                self.emit(ind, f"o{i} = {a} >= {_MMIO}")
                self.emit(ind, f"if o{i}:")
                self.emit(ind + "    ", f"{c} = {x} + 1")
                self.emit(ind, "else:")
                self._load_mem_timing(ind + "    ", i, a, x, c)
        elif kind == K_STORE:
            # Non-loads fold the unused ex_start local into the sum.
            self.emit(ind, f"{c} = {s} + {p.issue_to_ex + 1}")
        else:
            self.emit(ind, f"{c} = {s} + {p.issue_to_ex + lat}")

        # -- redirect / group break --
        fw = p.fetch_width
        if kind == K_BRANCH:
            self.emit(ind, f"if p{i} != k{i}:")
            self.emit(ind + "    ", f"rd = {c} + 1")
            self.emit(ind + "    ", "fc = rd - 1")
            self.emit(ind + "    ", f"gc = {fw}")
            self.emit(ind, f"elif p{i}:")
            self.emit(ind + "    ", f"gc = {fw}")
        elif kind == K_INDIRECT:
            self.emit(ind, f"if p{i} != g{i}:")
            self.emit(ind + "    ", f"rd = {c} + 1")
            self.emit(ind + "    ", "fc = rd - 1")
            self.emit(ind, f"gc = {fw}")
        elif kind == K_JUMP:
            self.emit(ind, f"gc = {fw}")

        # -- commit (in order, 4-wide) --
        # Batched retirement via the commit frontier (lc, ccn): every
        # candidate max(c+1, lc) is >= lc and the width map has no
        # entries past lc, so one pair replaces the dict scan.  The new
        # frontier ``y`` *is* this instruction's commit cycle; a fault
        # in its side effects reports the one before it (committed_now
        # semantics).
        y = f"l{i}"
        self.emit(ind, f"if {c} >= {lc}:")
        self.emit(ind + "    ", f"{y} = {c} + 1")
        self.emit(ind + "    ", "ccn = 1")
        self.emit(ind, f"elif ccn < {p.commit_width}:")
        self.emit(ind + "    ", f"{y} = {lc}")
        self.emit(ind + "    ", "ccn += 1")
        self.emit(ind, "else:")
        self.emit(ind + "    ", f"{y} = {lc} + 1")
        self.emit(ind + "    ", "ccn = 1")
        self.lc = y
        if is_mem:
            self._mem_commits.append(y)

        # -- architectural side effects --
        pc_next = str(npc)
        if kind == K_LOAD:
            self._load(
                ind, i, a, const_addr, mmio_static, dkey, wbank,
                self._row(lc), f"base + {x} + 1", f"base + {y}",
            )
        elif kind == K_STORE:
            self._store(
                ind, a, vt, const_addr, mmio_static, self._row(lc),
                f"base + {y}", f"base + {y}", "base",
                lambda b: self._store_commit(b, i, a, vt, c, y),
            )
        elif kind == K_BRANCH:
            pc_next = f"n{i}"
            self.emit(ind, f"{pc_next} = {starget} if k{i} else {npc}")
        elif kind == K_JUMP:
            if wbank == 1:
                regs.write_const(dkey, npc)
            pc_next = str(starget)
        elif kind == K_INDIRECT:
            if wbank == 1:
                regs.write_const(dkey, npc)
            pc_next = f"g{i}"
        # K_ALU: write already folded into the execute section.  K_HALT:
        # pc advances to npc (pc_next default).

        if dkey >= 0:
            self.crw += 1
            if i in self._fwd_useful:
                self.emit(ind, f"rv{i} = {c} - {p.issue_to_ex}")
                self.emit(ind, f"ready[{dkey}] = rv{i}")
                self._fwd[dkey] = f"rv{i}"
            else:
                self.emit(ind, f"ready[{dkey}] = {c} - {p.issue_to_ex}")
                self._fwd.pop(dkey, None)
        self.nex += 1

        # -- exit: halt, or the watchdog check (merged with the block's
        # own exit after its last instruction) --
        if kind == K_HALT:
            self._exit(ind, pc_next, '"h"')
        elif is_last:
            self._exit(ind, pc_next, f'"w" if {y} >= wl else {pc_next}')
        else:
            self._watchdog_check(y, self._row(y))

    def _load_mem_timing(self, ind: str, i: int, a: str, x: str,
                         c: str) -> None:
        """Forwarding check + D-cache access + completion time for a load."""
        self.emit(ind, f"e{i} = get_inflight({a})")
        self.emit(ind, f"fw{i} = e{i} is not None and e{i}[1] > {x}")
        self.emit(ind, "cdc += 1")
        self._dcache(ind, i, a, [f"h{i} = True"], [f"h{i} = False"])
        self.emit(ind, f"if fw{i}:")
        self.emit(ind + "    ", f"{c} = e{i}[0] + 1")
        self._max_into(ind + "    ", c, x, plus_one=True)
        self.emit(ind, f"elif h{i}:")
        self.emit(ind + "    ", f"{c} = {x} + 2")
        self.emit(ind, "else:")
        self.emit(ind + "    ", f"t = {x} + 1")
        self.emit(ind + "    ", "if bf > t:")
        self.emit(ind + "        ", "t = bf")
        self.emit(ind + "    ", "bf = t + pen")
        self.emit(ind + "    ", f"{c} = bf + 1")

    def _store_commit(self, ind: str, i: int, a: str, vt: str, c: str,
                      y: str) -> None:
        """Non-MMIO store commit: words write, D-cache, LSQ in-flight entry."""
        self._store_words(ind, a, vt)
        self.emit(ind, "cdc += 1")
        # A miss's write-allocate fill occupies the bus from commit.
        self._dcache(ind, i, a, [], [
            f"t = {y}", "if bf > t:", "    t = bf", "bf = t + pen",
        ])
        self.emit(ind, f"inflight_stores[{a}] = ({c}, {y})")


# --- block discovery, compilation, and the persistent table -------------------


class _Geometry(NamedTuple):
    """Everything block code shape depends on besides the block's own
    instructions."""

    ishift: int
    insets: int
    iassoc: int
    dshift: int
    dnsets: int
    dassoc: int
    tbase: int
    text_end: int
    #: Does some instruction of the program have timing destination r0?
    #: If none does, ``ready[0]`` stays 0 and no read of r0 is clamped.
    r0_written: bool


#: Upper bound on instructions fused into one generated function; longer
#: straight-line runs split at the cap (state is fully written at every
#: block exit, so an artificial boundary is behaviourally invisible).
_MAX_BLOCK = 64

_EXEC_GLOBALS: dict[str, Any] = {
    "_trunc_div": _trunc_div,
    "_trunc_rem": _trunc_rem,
    "_fdiv": _fdiv,
    "_fsqrt": _fsqrt,
    "_M": _M,
    "_S": _S,
    "_Watchdog": _Watchdog,
    "_EXITS": _EXITS,
    "_inorder_exit": _inorder_exit,
    "_ooo_exit": _ooo_exit,
    "__builtins__": {"len": len, "min": min, "abs": abs, "int": int,
                     "float": float, "locals": locals, "True": True,
                     "False": False, "None": None},
}


def _fname(engine: str, pc: int) -> str:
    return f"_b{pc:x}" if engine == "inorder" else f"_o{pc:x}"


def _leaders(program: "Program") -> set[int]:
    """Static basic-block leaders: CFG block starts when analyzable,
    else a linear scan over the fast plan (fuzz programs may violate the
    CFG analyzer's structural requirements)."""
    leaders = {program.entry}
    leaders.update(program.subtask_marks)
    try:
        cfg = build_cfg(program)
    except (AnalysisError, ReproError):
        fast = program.fast_plan()
        for fi in fast:
            kind, npc, starget = fi[0], fi[7], fi[8]
            if kind in _CONTROL_KINDS:
                leaders.add(npc)
                if starget is not None:
                    leaders.add(starget)
    else:
        for fn_cfg in cfg.functions.values():
            leaders.update(fn_cfg.blocks)
    return {a for a in leaders if program.contains(a)}


def _collect_block(
    program: "Program", start: int, stops: frozenset[int],
    cap: int = _MAX_BLOCK,
) -> list[tuple[int, Any]]:
    """Instructions of the block at ``start``: append until a control
    instruction, a stop address, the text end, or ``cap`` instructions
    (the engine's :func:`_block_cap`)."""
    fast = program.fast_plan()
    tbase = program.text_base
    text_end = program.text_end
    insts: list[tuple[int, Any]] = []
    pc = start
    while True:
        fi = fast[(pc - tbase) >> 2]
        insts.append((pc, fi))
        if fi[0] in _CONTROL_KINDS or len(insts) >= cap:
            break
        pc += 4
        if pc in stops or pc >= text_end:
            break
    return insts


def _walk_blocks(
    program: "Program", cap: int = _MAX_BLOCK,
) -> Iterator[tuple[int, list[tuple[int, Any]]]]:
    """Every static block of at most ``cap`` instructions as ``(start,
    insts)``: the leaders in address order, then the follow-on blocks of
    runs split at the cap."""
    leaders = _leaders(program)
    stops = frozenset(leaders)
    pending = sorted(leaders)
    seen = set(pending)
    while pending:
        start = pending.pop(0)
        insts = _collect_block(program, start, stops, cap)
        yield start, insts
        last_pc, last_fi = insts[-1]
        cont = last_pc + 4
        if (
            last_fi[0] not in _CONTROL_KINDS
            and cont not in seen
            and program.contains(cont)
        ):
            seen.add(cont)
            pending.append(cont)


def _emit_block(
    engine: str, geom: _Geometry, params: Any, start: int,
    insts: list[tuple[int, Any]],
) -> str:
    if engine == "inorder":
        return _InOrderEmitter(geom).emit_block(start, insts)
    return _OOOEmitter(geom, params).emit_block(start, insts)


#: One compiled block: ``(start, function name, length, module code)``.
_Record = tuple[int, str, int, CodeType]


def _compile_block(
    engine: str, geom: _Geometry, params: Any, start: int,
    insts: list[tuple[int, Any]],
) -> _Record:
    """Emit and compile one block on its own (a whole-table ``compile()``
    would hold the full table's source and syntax tree at once)."""
    source = _emit_block(engine, geom, params, start, insts)
    code = compile(source, f"<blockjit:{engine}:{start:#x}>", "exec")
    return start, _fname(engine, start), len(insts), code


def _install(
    records: Any, namespace: dict[str, Any]
) -> dict[int, BlockEntry]:
    """Exec ``records`` into ``namespace``; block-start pc -> entry.
    A record of any other shape (read back from disk) raises."""
    blocks: dict[int, BlockEntry] = {}
    for record in records:
        if tuple(map(type, record)) != (int, str, int, CodeType):
            raise TypeError("malformed blockjit record")
        start, name, length, code = record
        exec(code, namespace)  # noqa: S102 - executing our own codegen
        blocks[start] = (namespace[name], length)
    return blocks


class BlockTable:
    """Compiled blocks of one (program, engine, geometry, params).

    ``blocks`` maps block-start pc to ``(function, length)``.
    ``safe_breaks`` is the set of addresses guaranteed never to be
    block-interior (sub-task marks + entry): a breakpoint set inside it
    never needs a truncated block (:meth:`cut`), so the dispatchers test
    it once per segment instead of once per block.
    """

    def __init__(
        self,
        program: "Program",
        engine: str,
        geom: _Geometry,
        params: Any,
        namespace: dict[str, Any],
        blocks: dict[int, BlockEntry],
    ) -> None:
        self.program = program
        self.engine = engine
        self.geom = geom
        self.params = params
        self.blocks = blocks
        self._ns = namespace
        self.cap = _block_cap(engine, params)
        self.safe_breaks: frozenset[int] = (
            frozenset(program.subtask_marks) | {program.entry}
        )
        #: Truncated blocks, ``(pc, n)`` -> entry; in memory only.
        self.cuts: dict[tuple[int, int], BlockEntry] = {}

    def block_at(self, pc: int) -> BlockEntry:
        """The block starting at ``pc``, compiling on demand.

        Dynamic targets (indirect jumps into addresses that were not
        static leaders, or a segment resuming where a bounded one
        stopped) are compiled in-process and not persisted.
        """
        entry = self.blocks.get(pc)
        if entry is not None:
            return entry
        if not self.program.contains(pc):
            raise ReproError(f"no instruction at {pc:#x}")
        insts = _collect_block(self.program, pc, self.safe_breaks, self.cap)
        record = _compile_block(
            self.engine, self.geom, self.params, pc, insts
        )
        self.blocks.update(_install([record], self._ns))
        return self.blocks[pc]

    def cut(self, pc: int, n: int) -> BlockEntry:
        """The first ``n`` instructions of the block at ``pc`` as a block
        of their own, for a segment that must stop inside it (instruction
        budget or interior breakpoint).

        Emitted by the same emitters as a full block, so it exits with
        the same state a block ending at that address would.
        Compiled on first use into its own namespace (it shares the full
        block's function name) and never persisted.
        """
        entry = self.cuts.get((pc, n))
        if entry is None:
            insts = _collect_block(
                self.program, pc, self.safe_breaks, self.cap
            )[:n]
            record = _compile_block(
                self.engine, self.geom, self.params, pc, insts
            )
            entry = _install([record], dict(_EXEC_GLOBALS))[pc]
            self.cuts[pc, n] = entry
        return entry


@lru_cache(maxsize=None)
def _source_digest() -> str:
    """SHA-256 of the :data:`_CODEGEN_SOURCES` files, once per process."""
    digest = hashlib.sha256()
    for name in _CODEGEN_SOURCES:
        path = importlib.import_module(name).__file__
        assert path is not None, name
        with open(path, "rb") as source:
            digest.update(source.read())
    return digest.hexdigest()


def _disk_key(
    program: "Program", engine: str, geom: _Geometry,
    params_tuple: tuple | None,
) -> str:
    from repro.snapshot.state import (
        FORMAT_VERSION,
        canonical_json,
        program_digest,
    )

    payload = {
        "format": FORMAT_VERSION,
        "codegen": CODEGEN_VERSION,
        "source": _source_digest(),
        "python": sys.implementation.cache_tag,
        "engine": engine,
        "program": program_digest(program),
        "geom": list(geom),
        "params": list(params_tuple) if params_tuple is not None else None,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:24]


def _build_table(
    program: "Program", engine: str, geom: _Geometry, params: Any,
    params_tuple: tuple | None,
) -> BlockTable:
    """Load the table's ``blockjit`` entry (its value: the marshalled
    block records), or compile every block and publish them."""
    from repro.snapshot import runcache

    key = f"{engine}-{_disk_key(program, engine, geom, params_tuple)}"
    ns = dict(_EXEC_GLOBALS)
    blocks = runcache.load(
        "blockjit", key, lambda records: _install(records, ns)
    )
    if blocks is None:
        records = [
            _compile_block(engine, geom, params, start, insts)
            for start, insts in _walk_blocks(
                program, _block_cap(engine, params)
            )
        ]
        ns = dict(_EXEC_GLOBALS)  # a rejected entry may have exec'd into it
        blocks = _install(records, ns)
        runcache.store("blockjit", key, records)
    return BlockTable(program, engine, geom, params, ns, blocks)


def _geometry(machine: Any) -> _Geometry:
    program = machine.program
    ic = machine.icache.config
    dc = machine.dcache.config
    return _Geometry(
        ic.block_shift, ic.num_sets, ic.assoc,
        dc.block_shift, dc.num_sets, dc.assoc,
        program.text_base, program.text_end,
        # From the decoded instructions: a table loaded from disk never
        # builds the fast plan.
        any(inst.dest == ("i", 0) for inst in program.instructions),
    )


def block_table(machine: Any, engine: str, params: Any = None) -> BlockTable:
    """The (memoized) compiled block table for ``machine``'s program.

    Memoized on the Program keyed by engine, cache configurations and
    pipeline parameters, so cores sharing a program (and VISA instances
    sharing a workload) compile once per process; the compiled code
    additionally persists as a ``blockjit-<key>.marshal`` entry in the
    cache directory (:func:`repro.snapshot.runcache.store`).  The
    geometry, which scans the program for r0 writes, is derived on a
    miss only.
    """
    program = machine.program
    params_tuple = tuple(astuple(params)) if params is not None else None
    memo_key = (
        engine, machine.icache.config, machine.dcache.config, params_tuple
    )
    tables = program._blockjit_tables  # noqa: SLF001 - cooperative memo
    table = tables.get(memo_key)
    if table is None:
        table = _build_table(
            program, engine, _geometry(machine), params, params_tuple
        )
        tables[memo_key] = table
    return table


# --- dispatchers --------------------------------------------------------------


def _limit(max_instructions: int | None) -> int:
    """Instruction count a segment stops at: its budget, capped by the
    runaway guard (a segment retiring more than ``_RUNAWAY`` raises)."""
    if max_instructions is None:
        return _RUNAWAY + 1
    return min(max_instructions, _RUNAWAY + 1)


def _watchdog_limit(mmio: Any, honor: bool, origin: int) -> int:
    """A segment's initial watchdog limit ``wl``: the expiry cycle less
    ``origin``, the absolute cycle at which the count block code checks
    (in-order mem_end, OOO commit) would be 0, or ``_NEVER`` when the
    segment does not honour the watchdog."""
    wd_enabled = mmio._wd_enabled  # noqa: SLF001
    if honor and not mmio.exceptions_masked and wd_enabled:
        return mmio._wd_expiry - origin  # noqa: SLF001
    return _NEVER


def _first_interior(pc: int, length: int, breaks: frozenset[int]) -> int:
    """Instructions before the first breakpoint strictly inside the
    ``length``-instruction block at ``pc`` (``length`` if none)."""
    for k in range(1, length):
        if pc + 4 * k in breaks:
            return k
    return length


def run_inorder(
    core: Any,
    table: BlockTable,
    max_instructions: int | None = None,
    honor_watchdog: bool = True,
    break_addrs: frozenset[int] | None = None,
) -> Any:
    """Block-dispatch drive of an :class:`InOrderCore` segment.

    A segment with an instruction budget, or with breakpoints outside
    ``table.safe_breaks`` (which may fall inside a block), is *bounded*:
    before each dispatch it swaps in a truncated block
    (:meth:`BlockTable.cut`) when the budget or the block's first
    interior breakpoint ends the segment inside it.  A full run pays one
    flag test per block for this.
    """
    from repro.pipelines.inorder import RunResult

    state = core.state
    machine = core.machine
    mmio = machine.mmio
    start_cycle = state.now
    if state.halted:
        return RunResult("halt", start_cycle, start_cycle, 0)
    if max_instructions is not None and max_instructions <= 0:
        return RunResult("limit", start_cycle, start_cycle, 0)
    limit = _limit(max_instructions)
    interior = (
        break_addrs is not None and not break_addrs <= table.safe_breaks
    )
    bounded = max_instructions is not None or interior

    ic = machine.icache
    dc = machine.dcache
    ft = core._fast_timing  # noqa: SLF001 - carried across segments
    base = core._timing_base  # noqa: SLF001
    tg = core.train_gshare
    ti = core.train_indirect
    st: list[Any] = [
        ft[0], ft[1], ft[2], ft[3], ft[4], ft[5], ft[6], ft[7],
        ic._tick, dc._tick,  # noqa: SLF001
        0, 0, 0, 0,  # ihits, imiss, dhits, dmiss
        0, 0, 0, 0,  # fetched, c_regread, c_regwrite, c_dcache
        state.pc, 0,  # pc, executed
        _watchdog_limit(mmio, honor_watchdog, base + 1),
        mmio._wd_expiry,  # noqa: SLF001
    ]
    words = machine.memory._words  # noqa: SLF001
    env = (
        words, words.get,
        ic._sets, dc._sets,  # noqa: SLF001
        mmio, mmio.read, mmio.write,
        machine.data_read, machine.data_write,
        core.stall_cycles, base, honor_watchdog,
        tg.update if tg is not None else None,
        ti.update if ti is not None else None,
    )
    ir = state.int_regs
    fr = state.fp_regs
    ready = core._fast_ready  # noqa: SLF001
    blocks = table.blocks
    block_at = table.block_at
    pc = state.pc
    try:
        while True:
            entry = blocks.get(pc)
            if entry is None:
                entry = block_at(pc)
            if bounded:
                n = limit - st[19]
                if interior:
                    n = min(n, _first_interior(pc, entry[1], break_addrs))
                if n < entry[1]:
                    entry = table.cut(pc, n)
            r = entry[0](ir, fr, ready, st, env)
            if r.__class__ is int:
                pc = r
                st[18] = pc
                if st[19] >= limit:
                    if st[19] > _RUNAWAY:  # pragma: no cover - runaway guard
                        raise SimulationError(
                            "instruction budget exceeded (runaway?)"
                        )
                    return RunResult(
                        "limit", start_cycle, base + st[3] + 1, st[19]
                    )
                if break_addrs is not None and pc in break_addrs:
                    return RunResult(
                        "breakpoint", start_cycle, base + st[3] + 1, st[19]
                    )
                continue
            now = base + st[3] + 1
            if r == "h":
                state.halted = True
                return RunResult("halt", start_cycle, now, st[19])
            return RunResult(
                "watchdog", start_cycle, now, st[19],
                exception_cycle=min(now, st[21]),
            )
    finally:
        # Flush batched state back (return *or* raise), leaving the core
        # observationally identical to run_reference; the next segment
        # resumes from the shared _fast_timing/_fast_ready.
        ft[0] = st[0]
        ft[1] = st[1]
        ft[2] = st[2]
        ft[3] = st[3]
        ft[4] = st[4]
        ft[5] = st[5]
        ft[6] = st[6]
        ft[7] = st[7]
        ic._tick = st[8]  # noqa: SLF001
        dc._tick = st[9]  # noqa: SLF001
        ics = ic.stats
        ics.hits += st[10]
        ics.misses += st[11]
        dcs = dc.stats
        dcs.hits += st[12]
        dcs.misses += st[13]
        state.pc = st[18]
        state.now = base + st[3] + 1
        state.instret += st[19]
        if st[14]:
            counters = state.counters
            k_ic, k_fe, k_dc, k_rr, k_rw, k_fu = core._ckeys  # noqa: SLF001
            counters[k_ic] += st[14]
            counters[k_fe] += st[14]
            if st[19]:
                counters[k_rr] += st[15]
                counters[k_fu] += st[19]
            if st[16]:
                counters[k_rw] += st[16]
            if st[17]:
                counters[k_dc] += st[17]


#: Headroom, in cycles, the complex core's width maps keep past the
#: furthest cycle the next block can reach: a segment starts with lists
#: this long, and when a block would reach past their end the
#: dispatcher rebases the timing origin (lengthening the lists only
#: when the live window itself outgrew them), so a rebase comes about
#: every ``_SPAN`` cycles.
_SPAN = 4096


def _ooo_rebase(
    st: list[Any], ready: list[int], env: tuple, need: int
) -> tuple[tuple, int]:
    """Move a complex-mode segment's timing origin up to its floor
    max(gd, oldest ROB commit) + 1 (see "Relative time and the rebase"
    above), then lengthen the width maps if they end within ``_SPAN``
    of ``need``, the bound the next block's keys stay below.  Returns
    the new env and the width maps' length."""
    dis, iss, port, robq, iqq, lsqq, inflight = env[15:22]
    floor = max(st[2], robq[0]) + 1
    if floor > 0:
        # No slot past lc is taken: move keys floor..lc down and clear
        # the ones they leave, in O(lc) however far bf runs ahead.
        top = st[6] + 1
        for used in (dis, iss, port):
            used[:top - floor] = used[floor:top]
            used[top - floor:top] = [0] * floor
        for slot in (0, 1, 2, 5, 6):  # bf, fc, gd, rd, lc
            st[slot] -= floor
        if st[21] != _NEVER:
            st[21] -= floor
        ready[:] = [t - floor for t in ready]
        for ring in (robq, iqq, lsqq):
            ring[:] = [t - floor for t in ring]
        live = {
            addr: (comp - floor, commit - floor)
            for addr, (comp, commit) in inflight.items() if commit > floor
        }
        inflight.clear()
        inflight.update(live)
        env = (*env[:10], env[10] + floor, *env[11:])
        need -= floor
    size = max(len(dis), need + _SPAN)
    for used in (dis, iss, port):
        used += [0] * (size - len(used))
    return env, size


def run_ooo(
    core: Any,
    table: BlockTable,
    max_instructions: int | None = None,
    honor_watchdog: bool = True,
) -> Any:
    """Block-dispatch drive of a :class:`ComplexCore` complex-mode segment.

    A segment with an instruction budget swaps in a truncated block
    (:meth:`BlockTable.cut`) for the block the budget ends inside, as
    :func:`run_inorder` does.  Before each block the width maps must
    reach past every key it can touch; when they would not, the timing
    origin is rebased (:func:`_ooo_rebase`).
    """
    from repro.pipelines.inorder import RunResult

    state = core.state
    machine = core.machine
    mmio = machine.mmio
    params = core.params
    start_cycle = state.now
    if state.halted:
        return RunResult("halt", start_cycle, start_cycle, 0)
    if max_instructions is not None and max_instructions <= 0:
        return RunResult("limit", start_cycle, start_cycle, 0)
    limit = _limit(max_instructions)
    bounded = max_instructions is not None

    ic = machine.icache
    dc = machine.dcache
    base = state.now
    gshare = core.gshare
    indirect = core.indirect
    inflight_stores: dict[int, tuple[int, int]] = {}
    ready = [0] * 64
    st: list[Any] = [
        0, 0, 0, 0, -1, 0, 0,  # bf, fc, gd, gc, gb, rd, lc
        ic._tick, dc._tick,  # noqa: SLF001
        0, 0, 0, 0,  # ihits, imiss, dhits, dmiss
        0, 0, 0, 0, 0, 0,  # cg, cbp, crr, crw, cdc, nmem
        state.pc, 0,  # pc, executed
        _watchdog_limit(mmio, honor_watchdog, base),
        mmio._wd_expiry,  # noqa: SLF001
        0,  # ccn
        gshare.history, indirect.history,  # gh, ih
    ]
    words = machine.memory._words  # noqa: SLF001
    # Per-cycle width maps (relative cycle -> slots taken) stand in for
    # the reference's dispatch/issue/port _WidthMaps, and rings of the
    # last N entries (-1: not yet full) for its occupancy deques; its
    # commit width map is the in-code frontier pair st[6]/st[23];
    # predictor tables are passed raw (reads/updates are inlined in the
    # generated code, histories live in st[24]/st[25]).
    size = _SPAN
    env: tuple[Any, ...] = (
        words, words.get,
        ic._sets, dc._sets,  # noqa: SLF001
        mmio, mmio.read, mmio.write,
        machine.data_read, machine.data_write,
        core.stall_cycles, base, honor_watchdog,
        gshare.table, indirect.table, indirect.table.get,
        [0] * size, [0] * size, [0] * size,  # dis, iss, port
        [-1] * params.rob_entries, [-1] * params.iq_entries,
        [-1] * params.lsq_entries,
        inflight_stores, inflight_stores.get,
    )
    # Most cycles one instruction moves max(lc, bf) (see "Relative time
    # and the rebase").
    pen = core.stall_cycles
    grow = 6 + params.issue_to_ex + pen + max(pen, max(LATENCY.values()))
    ir = state.int_regs
    fr = state.fp_regs
    blocks = table.blocks
    block_at = table.block_at
    pc = state.pc
    # Instructions counted by the pipeline events but not retired: a load
    # or store that faults does so at its memory access, after the
    # timing model renamed, issued and committed it (run_reference
    # counts it there too); an ALU fault stops it before dispatch.
    faulted = 0
    try:
        while True:
            entry = blocks.get(pc)
            if entry is None:
                entry = block_at(pc)
            if bounded and limit - st[20] < entry[1]:
                entry = table.cut(pc, limit - st[20])
            need = st[6] if st[6] > st[0] else st[0]
            need += entry[1] * grow
            if need >= size:
                env, size = _ooo_rebase(st, ready, env, need)
                base = env[10]
            r = entry[0](ir, fr, ready, st, env)
            if r.__class__ is int:
                pc = r
                st[19] = pc
                if st[20] >= limit:
                    if st[20] > _RUNAWAY:  # pragma: no cover - runaway guard
                        raise SimulationError(
                            "instruction budget exceeded (runaway?)"
                        )
                    return RunResult(
                        "limit", start_cycle, base + st[6], st[20]
                    )
                continue
            now = base + st[6]
            if r == "h":
                state.halted = True
                return RunResult("halt", start_cycle, now, st[20])
            return RunResult(
                "watchdog", start_cycle, now, st[20],
                exception_cycle=min(now, st[22]),
            )
    except ReproError:
        if table.program.inst_at(st[19]).is_mem:
            faulted = 1
        raise
    finally:
        gshare.history = st[24]
        indirect.history = st[25]
        state.pc = st[19]
        state.now = base + st[6]
        state.instret += st[20]
        ic._tick = st[7]  # noqa: SLF001
        dc._tick = st[8]  # noqa: SLF001
        ics = ic.stats
        ics.hits += st[9]
        ics.misses += st[10]
        dcs = dc.stats
        dcs.hits += st[11]
        dcs.misses += st[12]
        counters = state.counters
        dispatched = st[20] + faulted
        if dispatched:
            counters["rename"] += dispatched
            counters["rob_write"] += dispatched
            counters["iq"] += dispatched
            counters["regread"] += st[15]
            counters["fu"] += dispatched
            counters["commit"] += dispatched
        if st[13]:
            counters["icache"] += st[13]
            counters["fetch"] += st[13]
        if st[14]:
            counters["bpred"] += st[14]
        if st[18]:
            counters["lsq"] += st[18]
        if st[17]:
            counters["dcache"] += st[17]
        if st[16]:
            counters["regwrite"] += st[16]


# --- cache observability (``repro cache stats``) ------------------------------


def disk_cache_stats() -> dict:
    """On-disk blockjit entries plus in-process hit/miss/store counters."""
    from repro.snapshot import runcache

    return runcache.cache_stats()["blockjit"]


__all__ = [
    "BlockTable",
    "CODEGEN_VERSION",
    "block_table",
    "disk_cache_stats",
    "run_inorder",
    "run_ooo",
]

"""Basic-block JIT: compile straight-line runs of the fast plan to Python.

Both cores' only fast path.  This module groups the per-instruction
plan (:mod:`repro.isa.fastexec`) into basic blocks (boundaries from
:func:`repro.wcet.cfg.build_cfg`, with a linear fallback when the CFG
analysis rejects a program) and emits one specialized Python function
*per block* via ``compile()``/``exec``.

Within a generated block:

* register values live in locals (promoted on first read, rebound on
  write) and are spilled back to the architectural arrays only at block
  exit or immediately before any operation that can raise (MMIO access,
  misaligned/text-range data access, DIV/REM/FDIV/FSQRT/FTOI),
* the in-order timing recurrence and the OOO event-driven constraint
  system are emitted inline with SSA-style names, mirroring
  :func:`repro.pipelines.inorder_engine.advance` and the reference
  loops' bookkeeping, and
* event counters whose increments are statically known (fetch, regread,
  regwrite, retired) become literal offsets baked into the exit writes.

The contract is *bit-identical observable state* with the cores'
``run_reference``: architectural registers and memory, cycle counts,
cache statistics, event counters, watchdog/exception cycles, and fault
side effects.  Two documented exclusions: a ``TypeError`` raised by
arithmetic on a float-contaminated integer register (already undefined
behaviour in the reference) may leave partially-updated batched state,
and at a text-range data-store fault the pipeline view differs
(in-order ``now`` includes the faulting store's timing; OOO event
counters exclude it).

Each block is compiled on its own, so a build never holds a whole
table's source or syntax tree at once.  The compiled block table is
memoized on the :class:`~repro.isa.program.Program` and persisted as
``.repro_cache/blockjit/<engine>-<key>.marshal``: one ``marshal`` blob of
per-block ``(start, name, length, code)`` records.  The key hashes the
program digest, cache geometry, pipeline parameters, ``CODEGEN_VERSION``,
``FORMAT_VERSION`` and the interpreter's cache tag (marshal is
interpreter-specific, so another Python never reads the entry and simply
rebuilds it); an unreadable entry counts as a miss and is rebuilt.

Every segment runs here.  A *bounded* segment (an instruction budget, or
breakpoints that may fall inside a block) runs a truncated copy of the
block it stops in (:meth:`BlockTable.cut`), compiled on first use and
kept in memory only; the dispatchers decide this per block from the
call alone, with no tier switch.
"""

from __future__ import annotations

import hashlib
import marshal
import re
import sys
from dataclasses import astuple
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
from repro.isa.opcodes import Op
from repro.isa.semantics import _fdiv, _fsqrt, _trunc_div, _trunc_rem
from repro.pipelines.inorder_engine import BRANCH_PENALTY, _FRONT_DEPTH
from repro.wcet.cfg import build_cfg

if TYPE_CHECKING:
    from pathlib import Path

    from repro.isa.program import Program

#: Bump when the emitted code changes shape; stale disk entries miss.
#: 3: the OOO disk key lost its ``sched`` field when the event layouts
#: became the only ones, so older (scan-layout) entries must not load.
CODEGEN_VERSION = 3

_M = 0xFFFFFFFF
_S = 0x80000000
_MMIO = layout.MMIO_BASE
_REDIRECT_OFFSET = BRANCH_PENALTY - _FRONT_DEPTH + 1
_RUNAWAY = 200_000_000

# OOO width-map hygiene: every _PRUNE_STRIDE committed
# instructions, cycle-keyed dispatch/issue/port maps larger than
# _PRUNE_MIN entries are rebuilt with dead (pre-frontier) keys dropped.
_PRUNE_STRIDE = 8192
_PRUNE_MIN = 512

_CONTROL_KINDS = (K_BRANCH, K_JUMP, K_INDIRECT, K_HALT)

BlockFn = Callable[..., Any]
BlockEntry = tuple[BlockFn, int]

# --- expression text builders (must match repro.isa.semantics exactly) -------


class _Regs:
    """Register promotion tracker: flat key (int n -> n, fp n -> 32+n).

    Each register is represented by TEXT: a stable local name (``R5`` /
    ``F5``), an int literal (constant-folded writes), or its home array
    slot before first use.  Reads of ``r0`` fold to ``0``.  Writes mark
    the key dirty; :meth:`spill` emits the home-array writebacks.
    """

    def __init__(self, lines: list[str]) -> None:
        self._lines = lines
        # key -> ("name", text) | ("const", value)
        self._val: dict[int, tuple[str, Any]] = {}
        self.dirty: set[int] = set()

    @staticmethod
    def _home(key: int) -> str:
        return f"ir[{key}]" if key < 32 else f"fr[{key - 32}]"

    @staticmethod
    def _name(key: int) -> str:
        return f"R{key}" if key < 32 else f"F{key - 32}"

    def read(self, key: int, ind: str) -> str:
        """Text for the current value of ``key`` (promoting on first read)."""
        if key == 0:
            return "0"
        state = self._val.get(key)
        if state is None:
            name = self._name(key)
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

    def write_name(self, key: int) -> str:
        """Local name to assign ``key``'s new value into (marks dirty)."""
        name = self._name(key)
        self._val[key] = ("name", name)
        self.dirty.add(key)
        return name

    def write_const(self, key: int, value: int) -> None:
        """Record a constant write (no code emitted until spill)."""
        self._val[key] = ("const", value)
        self.dirty.add(key)

    def prepare_write(self, key: int, ind: str) -> None:
        """Materialize ``key``'s *old* value into its home local.

        Needed before a conditional/faulting write site (load dest): a
        sync emitted between :meth:`write_name` and the actual
        assignment spills the local name, which must therefore already
        hold the pre-write architectural value on every path.
        """
        state = self._val.get(key)
        if state is not None and state[0] == "name":
            return
        name = self._name(key)
        if state is None:
            self._lines.append(f"{ind}{name} = {self._home(key)}")
            self._val[key] = ("name", name)
        else:  # pending const: keep the dirty flag, value moves to the local
            value = state[1]
            self._lines.append(f"{ind}{name} = {value}")
            self._val[key] = ("name", name)

    def spill_lines(self, ind: str, commit: bool = False) -> list[str]:
        """Home-array writebacks for every dirty register.

        ``commit`` may only be True for an *unconditional* spill site
        (function-body base indent): every later line is then reached
        only after these writebacks ran, so the dirty set can be
        cleared and later syncs skip registers written before this
        point.  Conditional spill sites (inside an arm) must keep the
        dirty set — the not-taken path never stored the values.
        """
        out = []
        for key in sorted(self.dirty):
            state = self._val[key]
            text = str(state[1]) if state[0] == "const" else state[1]
            out.append(f"{ind}{self._home(key)} = {text}")
        if commit:
            self.dirty.clear()
        return out


#: ALU ops whose generated expression can raise and therefore need a
#: state sync before evaluation (fault-state parity with the reference).
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


# --- in-order block emitter --------------------------------------------------
#
# Generated signature: def _b{pc:x}(ir, fr, ready, st, env)
#
# st (list, 22 slots): 0..7 the fast-timing vector [last_fetch, redirect,
#   ex_free, mem_free, prev_mem_start, front0, front1, front2], 8 itick,
#   9 dtick, 10 ihits, 11 imiss, 12 dhits, 13 dmiss, 14 fetched,
#   15 c_regread, 16 c_regwrite, 17 c_dcache, 18 pc, 19 executed,
#   20 wd (honor and not masked and wd_enabled), 21 wd_expiry.
# env (tuple, 14): words, words.get, icache sets, dcache sets, mmio,
#   mmio.read, mmio.write, machine.data_read, machine.data_write,
#   stall_cycles, timing base, honor_watchdog, gshare-train-or-None,
#   indirect-train-or-None.
#
# Return protocol: int -> next block pc (full block retired); "h" -> halt;
# "w" -> watchdog.  String exits (and faults) leave the authoritative
# pc/executed in st[18]/st[19]; every may-raise operation is preceded by a
# full st write so faults are observationally identical to the reference.

_INORDER_ENV = (
    "words, words_get, isets, dsets, mmio, mmio_read, mmio_write, "
    "data_read, data_write, stall, base, honor, tg, ti"
)
_INORDER_ST = (
    "lf, rd, xf, mf, pm, q0, q1, q2, itick, dtick, ihits, imiss, dhits, "
    "dmiss, cfe, crr, crw, cdc, _pc, nex, wd, wdx"
)


def _ctr(name: str, add: int) -> str:
    return f"{name} + {add}" if add else name


_TMAX_RE = re.compile(
    r"^(\s+)t = ([A-Za-z_][A-Za-z0-9_]*(?:\[\d+\])?)( \+ 1)?$"
)
_TMAX_IF_RE = re.compile(r"^(\s+)if t > ([A-Za-z_][A-Za-z0-9_]*):$")


def _tighten_max(lines: list[str]) -> list[str]:
    """Strength-reduce the scratch-``t`` max pattern in emitted code.

    ``t = E; if t > x: x = t`` (with ``E`` a name, a literal subscript,
    or either plus one) becomes a direct compare that skips the scratch
    store/load — and computes ``E + 1`` only on the taken path.  ``t``
    is write-before-read scratch at every emission site, so dropping an
    assignment never leaks into a later read.
    """
    out: list[str] = []
    i = 0
    n = len(lines)
    while i < n:
        m = _TMAX_RE.match(lines[i])
        if m and i + 2 < n:
            mi = _TMAX_IF_RE.match(lines[i + 1])
            if (
                mi
                and mi.group(1) == m.group(1)
                and lines[i + 2] == f"{m.group(1)}    {mi.group(2)} = t"
            ):
                ind, e, x = m.group(1), m.group(2), mi.group(2)
                if m.group(3):  # E + 1 > x  <=>  E >= x (ints)
                    out.append(f"{ind}if {e} >= {x}:")
                    out.append(f"{ind}    {x} = {e} + 1")
                else:
                    out.append(f"{ind}if {e} > {x}:")
                    out.append(f"{ind}    {x} = {e}")
                i += 3
                continue
        out.append(lines[i])
        i += 1
    return out


class _InOrderEmitter:
    """Emit one in-order basic-block function (see layout comment above)."""

    def __init__(self, geom: "_Geometry") -> None:
        self.g = geom
        self.lines: list[str] = []
        self.regs = _Regs(self.lines)
        # Semantic timing-state names -> current text (SSA per instruction).
        self.nm = {k: k for k in
                   ("lf", "rd", "xf", "mf", "pm", "q0", "q1", "q2")}
        self.cfe = 0
        self.crr = 0
        self.crw = 0
        self.nex = 0
        # Statically-guaranteed icache hits, batched: pending tick count and
        # last way-write offset per (set, block).
        self.ip_count = 0
        self.ip_ways: dict[tuple[int, int], int] = {}
        self._last_line: dict[int, int] = {}

    # -- helpers --

    def emit(self, ind: str, text: str) -> None:
        self.lines.append(ind + text)

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

    def _sync(self, ind: str, pc_expr: str, commit: bool | None = None) -> None:
        """Write full architectural+batched state to st (fault parity).

        Never clears codegen-side pending icache state: on raising paths
        nothing follows, and on continuing paths the pending way-writes
        are idempotent re-writes.  Register spills at base indent are
        unconditional, so by default they *do* commit (clear the dirty
        set) and later syncs skip them; spills inside an arm repeat at
        the next sync.  ``commit=False`` is required at the one site
        where a destination register is already marked dirty but its
        runtime assignment only happens *after* the sync (statically
        known MMIO loads): committing there would lose the writeback.
        """
        self.lines.extend(self._pending_way_lines(ind))
        if commit is None:
            commit = ind == "    "
        self.lines.extend(self.regs.spill_lines(ind, commit=commit))
        n = self.nm
        self.emit(ind, "st[:] = (" + ", ".join((
            n["lf"], n["rd"], n["xf"], n["mf"], n["pm"],
            n["q0"], n["q1"], n["q2"],
            _ctr("itick", self.ip_count), "dtick",
            _ctr("ihits", self.ip_count), "imiss", "dhits", "dmiss",
            _ctr("cfe", self.cfe), _ctr("crr", self.crr),
            _ctr("crw", self.crw), "cdc",
            pc_expr, _ctr("nex", self.nex), "wd", "wdx",
        )) + ")")

    def _exit(self, ind: str, pc_expr: str, ret: str) -> None:
        self._sync(ind, pc_expr)
        self.emit(ind, f"return {ret}")

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

    def _dcache(self, ind: str, i: int, a: str, d: str | None) -> None:
        """Inline D-cache access for address text ``a``.

        ``d`` names the dcache_extra local to set (None: caller only
        needs the stats/LRU side effects — OOO store commit path).
        """
        g = self.g
        self.emit(ind, f"b{i} = {a} >> {g.dshift}")
        self.emit(ind, f"w = dsets[b{i} % {g.dnsets}]")
        self.emit(ind, f"if b{i} in w:")
        self.emit(ind + "    ", f"w[b{i}] = dtick")
        self.emit(ind + "    ", "dtick += 1")
        self.emit(ind + "    ", "dhits += 1")
        if d is not None:
            self.emit(ind + "    ", f"{d} = 0")
        self.emit(ind, "else:")
        self.emit(ind + "    ", f"w[b{i}] = dtick")
        self.emit(ind + "    ", "dtick += 1")
        self.emit(ind + "    ", f"if len(w) > {g.dassoc}:")
        self.emit(ind + "        ", "del w[min(w, key=w.__getitem__)]")
        self.emit(ind + "    ", "dmiss += 1")
        if d is not None:
            self.emit(ind + "    ", f"{d} = stall")

    # -- main entry --

    def emit_block(self, pc: int, insts: list[tuple[int, Any]]) -> str:
        """Generate the block function source for ``insts`` at ``pc``."""
        fname = f"_b{pc:x}"
        head = [
            f"def {fname}(ir, fr, ready, st, env):",
            f"    ({_INORDER_ENV}) = env",
            f"    ({_INORDER_ST}) = st",
        ]
        g = self.g
        sets_used = sorted({
            (ipc >> g.ishift) % g.insets for ipc, _ in insts
        })
        for setk in sets_used:
            head.append(f"    iw{setk} = isets[{setk}]")
        for idx, (ipc, fi) in enumerate(insts):
            self._inst(idx, ipc, fi, is_last=idx == len(insts) - 1)
        return "\n".join(head + _tighten_max(self.lines)) + "\n"

    def _inst(self, i: int, pc: int, fi: Any, is_last: bool) -> None:
        (kind, src_keys, dkey, wbank, dnum, nsrc, lat, npc, starget,
         ptaken, inst) = fi
        n = self.nm
        regs = self.regs
        g = self.g
        ind = "    "

        # -- fetch timing + I-cache (reference lines: fetch clamps then
        # `fetch += icache_extra`, emitted as `f += stall` on the miss arm).
        f = f"f{i}"
        self.emit(ind, f"{f} = {n['lf']} + 1")
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
            folded = _alu_fold(inst, regs)
            if folded is not None:
                if wbank != 0:
                    regs.write_const(dkey, folded)
            else:
                expr, may_raise = _alu_expr(inst, regs, ind)
                if may_raise:
                    self._sync(ind, str(pc))
                if wbank != 0:
                    self.emit(ind, f"{regs.write_name(dkey)} = {expr}")
                elif may_raise:
                    self.emit(ind, f"v{i} = {expr}")
        elif kind == K_LOAD or kind == K_STORE:
            base_c = regs.read_const(inst.rs)
            if kind == K_LOAD:
                if base_c is not None:
                    const_addr = (base_c + inst.imm) & _M
                    a = str(const_addr)
                else:
                    s_txt = regs.read(inst.rs, ind)
                    self.emit(ind, f"{a} = ({s_txt} + {inst.imm}) & _M")
            else:
                s_txt = "" if base_c is not None else regs.read(inst.rs, ind)
                vt = (regs.read(32 + inst.rt, ind) if inst.op is Op.FSW
                      else regs.read(inst.rt, ind))
                if base_c is not None:
                    const_addr = (base_c + inst.imm) & _M
                    a = str(const_addr)
                else:
                    self.emit(ind, f"{a} = ({s_txt} + {inst.imm}) & _M")
            mmio_static = (const_addr >= _MMIO) if const_addr is not None \
                else None
            if mmio_static is True:
                self.emit(ind, f"{d} = 0")
            elif mmio_static is False:
                self.emit(ind, "cdc += 1")
                self._dcache(ind, i, a, d)
            elif kind == K_LOAD:
                self.emit(ind, f"o{i} = {a} >= {_MMIO}")
                self.emit(ind, f"if o{i}:")
                self.emit(ind + "    ", f"{d} = 0")
                self.emit(ind, "else:")
                self.emit(ind + "    ", "cdc += 1")
                self._dcache(ind + "    ", i, a, d)
            else:
                self.emit(ind, f"if {a} < {_MMIO}:")
                self.emit(ind + "    ", "cdc += 1")
                self._dcache(ind + "    ", i, a, d)
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
        self.emit(ind, f"t = {n['xf']} + 1")
        self.emit(ind, f"if t > {x}:")
        self.emit(ind + "    ", f"{x} = t")
        self.emit(ind, f"if {n['pm']} > {x}:")
        self.emit(ind + "    ", f"{x} = {n['pm']}")
        for sk in dict.fromkeys(src_keys):
            self.emit(ind, f"t = ready[{sk}]")
            self.emit(ind, f"if t > {x}:")
            self.emit(ind + "    ", f"{x} = t")
        if lat == 1:
            xe = x
        else:
            xe = f"e{i}"
            self.emit(ind, f"{xe} = {x} + {lat - 1}")
        m = f"m{i}"
        self.emit(ind, f"{m} = {xe} + 1")
        self.emit(ind, f"t = {n['mf']} + 1")
        self.emit(ind, f"if t > {m}:")
        self.emit(ind + "    ", f"{m} = t")
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
            if wbank != 0:
                regs.prepare_write(dkey, ind)
                dest = regs.write_name(dkey)
            else:
                dest = f"v{i}"
            mm = f"{dest} = mmio_read({a}, base + {m})"
            mem_guard = f"if {a} & 3 or {g.tbase} <= {a} < {g.text_end}:"
            mem_read = f"data_read({a}, base + {u} + 1)"
            mem_val = f"{dest} = words_get({a}, 0)"
            if mmio_static is True:
                self._sync(ind, str(pc), commit=False)
                self.emit(ind, mm)
            elif mmio_static is False:
                self.emit(ind, mem_guard)
                self._sync(ind + "    ", str(pc))
                self.emit(ind + "    ", mem_read)
                self.emit(ind, mem_val)
            else:
                self.emit(ind, f"if o{i}:")
                self._sync(ind + "    ", str(pc))
                self.emit(ind + "    ", mm)
                self.emit(ind, "else:")
                self.emit(ind + "    ", mem_guard)
                self._sync(ind + "        ", str(pc))
                self.emit(ind + "        ", mem_read)
                self.emit(ind + "    ", mem_val)
        elif kind == K_STORE:
            wr = self._store_words_lines(ind, a, vt)
            mm = [
                f"mmio_write({a}, {vt}, base + {m})",
                "wd = honor and not mmio.exceptions_masked"
                " and mmio._wd_enabled",
                "wdx = mmio._wd_expiry",
            ]
            mem_guard = f"if {a} & 3 or {g.tbase} <= {a} < {g.text_end}:"
            mem_write = f"data_write({a}, {vt}, base + {u} + 1)"
            if mmio_static is True:
                self._sync(ind, str(pc))
                for line in mm:
                    self.emit(ind, line)
            elif mmio_static is False:
                self.emit(ind, mem_guard)
                self._sync(ind + "    ", str(pc))
                self.emit(ind + "    ", mem_write)
                for line in wr:
                    self.emit(ind, line)
            else:
                self.emit(ind, f"if {a} >= {_MMIO}:")
                self._sync(ind + "    ", str(pc))
                for line in mm:
                    self.emit(ind + "    ", line)
                self.emit(ind, "else:")
                self.emit(ind + "    ", mem_guard)
                self._sync(ind + "        ", str(pc))
                self.emit(ind + "        ", mem_write)
                for line in wr:
                    self.emit(ind + "    ", line)
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

        # -- event counters (statically known; become exit literals) --
        self.crr += nsrc
        if dkey >= 0:
            self.crw += 1
        self.nex += 1

        if kind == K_HALT:
            self._exit(ind, pc_next, '"h"')
            return

        self.emit(ind, f"if wd and base + {u} + 1 >= wdx:")
        self._exit(ind + "    ", pc_next, '"w"')

        if is_last:
            self._exit(ind, pc_next, pc_next)

    def _store_words_lines(self, ind: str, a: str, vt: str) -> list[str]:
        """The memory-image store with the reference's int wrap check."""
        try:
            const = int(vt)
        except ValueError:
            return [
                f"if {vt}.__class__ is int:",
                f"    words[{a}] = (({vt} + {_S}) & {_M}) - {_S}",
                "else:",
                f"    words[{a}] = {vt}",
            ]
        return [f"words[{a}] = {_wrap_s32(const)}"]


# --- OOO block emitter --------------------------------------------------------
#
# Generated signature: def _o{pc:x}(ir, fr, ready, st, env)
#
# st (list, 29 slots): 0 bus_free, 1 fetch_cycle, 2 group_done,
#   3 group_count, 4 group_block, 5 redirect, 6 last_commit (the
#   *committed* value: at a mid-instruction fault it lags the commit-stage
#   clamp exactly like ``committed_now`` in the reference), 7 itick,
#   8 dtick, 9 ihits, 10 imiss, 11 dhits, 12 dmiss, 13 c_group,
#   14 c_bpred, 15 c_regread, 16 c_regwrite, 17 c_dcache, 18 n_mem,
#   19 pc, 20 executed, 21 wd, 22 wd_expiry, 23 ri (ROB ring cursor),
#   24 qi (IQ ring cursor), 25 li (LSQ ring cursor), 26 ccn (commits at
#   the lc frontier cycle), 27 gh (gshare global history), 28 ih
#   (indirect-predictor history).  The dispatcher's finally-flush
#   indexes into it.
# env (tuple, 26): words, words.get, icache sets, dcache sets, mmio,
#   mmio.read, mmio.write, machine.data_read, machine.data_write,
#   stall penalty, timing base, honor_watchdog, the raw gshare table,
#   the indirect table and its .get (the generated code inlines
#   predictor reads/updates), then the per-segment scheduling
#   structures: dis_used/dis_get, iss_used/iss_get, port_used/port_get,
#   the preallocated ROB/IQ/LSQ occupancy rings, and
#   inflight_stores/inflight_stores.get.

_OOO_ENV = (
    "words, words_get, isets, dsets, mmio, mmio_read, mmio_write, "
    "data_read, data_write, pen, base, honor, gt, it, it_get, "
    "dis_used, dis_get, iss_used, iss_get, port_used, port_get, "
    "robq, iqq, lsqq, inflight_stores, get_inflight"
)
_OOO_ST = (
    "bf, fc, gd, gc, gb, rd, lc, itick, dtick, ihits, imiss, dhits, "
    "dmiss, cg, cbp, crr, crw, cdc, nmem, _pc, nex, wd, wdx, "
    "ri, qi, li, ccn, gh, ih"
)


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


class _OOOEmitter:
    """Emit one complex-mode basic-block function (layout comment above)."""

    def __init__(self, geom: "_Geometry", params: Any) -> None:
        self.g = geom
        self.p = params
        self.lines: list[str] = []
        self.regs = _Regs(self.lines)
        # ``lc`` is the commit frontier (the reference's ``last_commit``,
        # updated at the commit stage); the sync name tracks
        # ``committed_now``'s cycle part, which only advances *after* an
        # instruction's side effects.
        self.lc_sync = "lc"
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

    def emit(self, ind: str, text: str) -> None:
        self.lines.append(ind + text)

    def _sync(self, ind: str, pc_expr: str, commit: bool | None = None) -> None:
        """Write full architectural state to st before a may-raise op.

        Spill-commit semantics mirror the in-order emitter: base-indent
        syncs clear the dirty set, except when a dirty destination's
        runtime assignment follows the sync (``commit=False``).
        """
        if commit is None:
            commit = ind == "    "
        self.lines.extend(self.regs.spill_lines(ind, commit=commit))
        slots = (
            "bf", "fc", "gd", "gc", "gb", "rd", self.lc_sync,
            "itick", "dtick", "ihits", "imiss", "dhits", "dmiss", "cg",
            _ctr("cbp", self.cbp), _ctr("crr", self.crr),
            _ctr("crw", self.crw), "cdc", _ctr("nmem", self.nmem),
            pc_expr, _ctr("nex", self.nex), "wd", "wdx",
            "ri", "qi", "li", "ccn", "gh", "ih",
        )
        self.emit(ind, "st[:] = (" + ", ".join(slots) + ")")

    def _exit(self, ind: str, pc_expr: str, ret: str) -> None:
        self._sync(ind, pc_expr)
        self.emit(ind, f"return {ret}")

    def _dcache_hit(self, ind: str, i: int, a: str) -> None:
        """Inline D-cache access setting the hit flag ``h{i}``."""
        g = self.g
        self.emit(ind, f"b{i} = {a} >> {g.dshift}")
        self.emit(ind, f"w = dsets[b{i} % {g.dnsets}]")
        self.emit(ind, f"if b{i} in w:")
        self.emit(ind + "    ", f"w[b{i}] = dtick")
        self.emit(ind + "    ", "dtick += 1")
        self.emit(ind + "    ", "dhits += 1")
        self.emit(ind + "    ", f"h{i} = True")
        self.emit(ind, "else:")
        self.emit(ind + "    ", f"w[b{i}] = dtick")
        self.emit(ind + "    ", "dtick += 1")
        self.emit(ind + "    ", f"if len(w) > {g.dassoc}:")
        self.emit(ind + "        ", "del w[min(w, key=w.__getitem__)]")
        self.emit(ind + "    ", "dmiss += 1")
        self.emit(ind + "    ", f"h{i} = False")

    def _dcache_store_commit(self, ind: str, i: int, a: str, y: str) -> None:
        """Store-commit D-cache access; a miss occupies the bus (fill)."""
        g = self.g
        self.emit(ind, f"b{i} = {a} >> {g.dshift}")
        self.emit(ind, f"w = dsets[b{i} % {g.dnsets}]")
        self.emit(ind, f"if b{i} in w:")
        self.emit(ind + "    ", f"w[b{i}] = dtick")
        self.emit(ind + "    ", "dtick += 1")
        self.emit(ind + "    ", "dhits += 1")
        self.emit(ind, "else:")
        self.emit(ind + "    ", f"w[b{i}] = dtick")
        self.emit(ind + "    ", "dtick += 1")
        self.emit(ind + "    ", f"if len(w) > {g.dassoc}:")
        self.emit(ind + "        ", "del w[min(w, key=w.__getitem__)]")
        self.emit(ind + "    ", "dmiss += 1")
        self.emit(ind + "    ", f"t = {y}")
        self.emit(ind + "    ", "if bf > t:")
        self.emit(ind + "        ", "t = bf")
        self.emit(ind + "    ", "bf = t + pen")

    def emit_block(self, pc: int, insts: list[tuple[int, Any]]) -> str:
        fname = f"_o{pc:x}"
        head = [
            f"def {fname}(ir, fr, ready, st, env):",
            f"    ({_OOO_ENV}) = env",
            f"    ({_OOO_ST}) = st",
        ]
        self._fwd_useful = _fwd_consumers(insts)
        for idx, (ipc, fi) in enumerate(insts):
            self._inst(idx, ipc, fi, is_last=idx == len(insts) - 1)
        return "\n".join(head + _tighten_max(self.lines)) + "\n"

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
        else:
            # Same line as the previous instruction: only width overflow
            # can break the group, and the line is a guaranteed hit (the
            # set's most recent access was this very line).
            self.emit(ind, f"if gc >= {fw}:")
            b = ind + "    "
            self.emit(b, "fc += 1")
            self.emit(b, "gc = 0")
            self.emit(b, "cg += 1")
            self.emit(b, f"w = isets[{setk}]")
            self.emit(b, f"w[{blk}] = itick")
            self.emit(b, "itick += 1")
            self.emit(b, "ihits += 1")
            self.emit(b, "gd = fc")
        self.emit(ind, "gc += 1")
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
        g = self.g
        p = self.p
        ind = "    "

        self._fetch_group(i, pc)

        # -- architectural execute + branch prediction --
        a = f"a{i}"
        const_addr: int | None = None
        mmio_static: bool | None = None
        vt = ""
        if kind == K_ALU:
            folded = _alu_fold(inst, regs)
            if folded is not None:
                if wbank != 0:
                    regs.write_const(dkey, folded)
            else:
                expr, may_raise = _alu_expr(inst, regs, ind)
                if may_raise:
                    self._sync(ind, str(pc))
                if wbank != 0:
                    self.emit(ind, f"{regs.write_name(dkey)} = {expr}")
                elif may_raise:
                    self.emit(ind, f"v{i} = {expr}")
        elif kind == K_LOAD or kind == K_STORE:
            base_c = regs.read_const(inst.rs)
            s_txt = "" if base_c is not None else regs.read(inst.rs, ind)
            if kind == K_STORE:
                vt = (regs.read(32 + inst.rt, ind) if inst.op is Op.FSW
                      else regs.read(inst.rt, ind))
            if base_c is not None:
                const_addr = (base_c + inst.imm) & _M
                a = str(const_addr)
                mmio_static = const_addr >= _MMIO
            else:
                self.emit(ind, f"{a} = ({s_txt} + {inst.imm}) & _M")
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
        # Ring occupancy clamps: the cursor slot holds the oldest
        # live entry exactly when the structure is full, else the -1
        # sentinel (never >= d, which is >= 1), reproducing the
        # deque len==N guard without a length check.
        rings = [("robq", "ri"), ("iqq", "qi")]
        if is_mem:
            self.nmem += 1
            rings.append(("lsqq", "li"))
        for ring, cur in rings:
            self.emit(ind, f"t = {ring}[{cur}]")
            self.emit(ind, f"if t >= {d}:")
            self.emit(ind + "    ", f"{d} = t + 1")
        self.emit(ind, f"while (vd := dis_get({d}, 0)) >= {p.dispatch_width}:")
        self.emit(ind + "    ", f"{d} += 1")
        self.emit(ind, f"dis_used[{d}] = vd + 1")

        # -- issue (wakeup/select) --
        s = f"s{i}"
        self.emit(ind, f"{s} = {d} + 1")
        for sk in dict.fromkeys(src_keys):
            fwd = self._fwd.get(sk)
            self.emit(ind, f"t = {fwd if fwd is not None else f'ready[{sk}]'}")
            self.emit(ind, f"if t > {s}:")
            self.emit(ind + "    ", f"{s} = t")
        if is_mem:
            self.emit(ind, "while True:")
            self.emit(ind + "    ",
                      f"while (vi := iss_get({s}, 0)) >= {p.issue_width}:")
            self.emit(ind + "        ", f"{s} += 1")
            self.emit(ind + "    ", f"t = {s}")
            self.emit(ind + "    ",
                      f"while (vp := port_get(t, 0)) >= {p.cache_ports}:")
            self.emit(ind + "        ", "t += 1")
            self.emit(ind + "    ", f"if t == {s}:")
            self.emit(ind + "        ", "break")
            self.emit(ind + "    ", f"{s} = t")
            self.emit(ind, f"port_used[{s}] = vp + 1")
        else:
            self.emit(ind, f"while (vi := iss_get({s}, 0)) >= {p.issue_width}:")
            self.emit(ind + "    ", f"{s} += 1")
        self.emit(ind, f"iss_used[{s}] = vi + 1")
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
        y = f"y{i}"
        # Batched retirement via the commit frontier (lc, ccn): every
        # candidate max(c+1, lc) is >= lc and the width map has no
        # entries past lc, so one pair replaces the dict scan.  The
        # frontier equals this commit afterwards (lc == y), but the
        # sync slot must keep lagging through the side effects
        # (committed_now semantics), hence the lcp snapshot.
        if is_mem:
            self.emit(ind, f"lcp{i} = lc")
        self.emit(ind, f"{y} = {c} + 1")
        self.emit(ind, f"if {y} <= lc:")
        self.emit(ind + "    ", f"if ccn < {p.commit_width}:")
        self.emit(ind + "        ", "ccn += 1")
        self.emit(ind + "        ", f"{y} = lc")
        self.emit(ind + "    ", "else:")
        self.emit(ind + "        ", "lc += 1")
        self.emit(ind + "        ", "ccn = 1")
        self.emit(ind + "        ", f"{y} = lc")
        self.emit(ind, "else:")
        self.emit(ind + "    ", f"lc = {y}")
        self.emit(ind + "    ", "ccn = 1")
        self.emit(ind, f"robq[ri] = {y}")
        self.emit(ind, "ri += 1")
        self.emit(ind, f"if ri == {p.rob_entries}:")
        self.emit(ind + "    ", "ri = 0")
        if is_mem:
            self.emit(ind, f"lsqq[li] = {y}")
            self.emit(ind, "li += 1")
            self.emit(ind, f"if li == {p.lsq_entries}:")
            self.emit(ind + "    ", "li = 0")
        self.emit(ind, f"iqq[qi] = {s}")
        self.emit(ind, "qi += 1")
        self.emit(ind, f"if qi == {p.iq_entries}:")
        self.emit(ind + "    ", "qi = 0")
        self.lc_sync = f"lcp{i}" if is_mem else "lc"

        # -- architectural side effects --
        pc_next = str(npc)
        if kind == K_LOAD:
            if wbank != 0:
                regs.prepare_write(dkey, ind)
                dest = regs.write_name(dkey)
            else:
                dest = f"v{i}"
            mm = f"{dest} = mmio_read({a}, base + {x} + 1)"
            mem_guard = f"if {a} & 3 or {g.tbase} <= {a} < {g.text_end}:"
            mem_read = f"data_read({a}, base + {y})"
            mem_val = f"{dest} = words_get({a}, 0)"
            if mmio_static is True:
                self._sync(ind, str(pc), commit=False)
                self.emit(ind, mm)
            elif mmio_static is False:
                self.emit(ind, mem_guard)
                self._sync(ind + "    ", str(pc))
                self.emit(ind + "    ", mem_read)
                self.emit(ind, mem_val)
            else:
                self.emit(ind, f"if o{i}:")
                self._sync(ind + "    ", str(pc))
                self.emit(ind + "    ", mm)
                self.emit(ind, "else:")
                self.emit(ind + "    ", mem_guard)
                self._sync(ind + "        ", str(pc))
                self.emit(ind + "        ", mem_read)
                self.emit(ind + "    ", mem_val)
        elif kind == K_STORE:
            mm = [
                f"mmio_write({a}, {vt}, base + {y})",
                "wd = honor and not mmio.exceptions_masked"
                " and mmio._wd_enabled",
                "wdx = mmio._wd_expiry",
            ]
            mem_guard = f"if {a} & 3 or {g.tbase} <= {a} < {g.text_end}:"
            mem_write = f"data_write({a}, {vt}, base + {y})"
            if mmio_static is True:
                self._sync(ind, str(pc))
                for line in mm:
                    self.emit(ind, line)
            elif mmio_static is False:
                self.emit(ind, mem_guard)
                self._sync(ind + "    ", str(pc))
                self.emit(ind + "    ", mem_write)
                self._store_commit(ind, i, a, vt, c, y)
            else:
                self.emit(ind, f"if {a} >= {_MMIO}:")
                self._sync(ind + "    ", str(pc))
                for line in mm:
                    self.emit(ind + "    ", line)
                self.emit(ind, "else:")
                self.emit(ind + "    ", mem_guard)
                self._sync(ind + "        ", str(pc))
                self.emit(ind + "        ", mem_write)
                self._store_commit(ind + "    ", i, a, vt, c, y)
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
        self.lc_sync = y

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

        if kind == K_HALT:
            self._exit(ind, pc_next, '"h"')
            return

        self.emit(ind, f"if wd and base + {y} >= wdx:")
        self._exit(ind + "    ", pc_next, '"w"')

        if is_last:
            self._exit(ind, pc_next, pc_next)

    def _load_mem_timing(self, ind: str, i: int, a: str, x: str,
                         c: str) -> None:
        """Forwarding check + D-cache access + completion time for a load."""
        self.emit(ind, f"e{i} = get_inflight({a})")
        self.emit(ind, f"fw{i} = e{i} is not None and e{i}[1] > {x}")
        self.emit(ind, "cdc += 1")
        self._dcache_hit(ind, i, a)
        self.emit(ind, f"if fw{i}:")
        self.emit(ind + "    ", f"{c} = e{i}[0] + 1")
        self.emit(ind + "    ", f"t = {x} + 1")
        self.emit(ind + "    ", f"if t > {c}:")
        self.emit(ind + "        ", f"{c} = t")
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
        try:
            const = int(vt)
        except ValueError:
            self.emit(ind, f"if {vt}.__class__ is int:")
            self.emit(ind + "    ",
                      f"words[{a}] = (({vt} + {_S}) & {_M}) - {_S}")
            self.emit(ind, "else:")
            self.emit(ind + "    ", f"words[{a}] = {vt}")
        else:
            self.emit(ind, f"words[{a}] = {_wrap_s32(const)}")
        self.emit(ind, "cdc += 1")
        self._dcache_store_commit(ind, i, a, y)
        self.emit(ind, f"inflight_stores[{a}] = ({c}, {y})")


# --- block discovery, compilation, and the persistent table -------------------


class _Geometry(NamedTuple):
    """Everything block code shape depends on besides the program itself."""

    ishift: int
    insets: int
    iassoc: int
    dshift: int
    dnsets: int
    dassoc: int
    tbase: int
    text_end: int


#: Upper bound on instructions fused into one generated function; longer
#: straight-line runs split at the cap (state is fully synced at every
#: block exit, so an artificial boundary is behaviourally invisible).
_MAX_BLOCK = 64

_EXEC_GLOBALS: dict[str, Any] = {
    "_trunc_div": _trunc_div,
    "_trunc_rem": _trunc_rem,
    "_fdiv": _fdiv,
    "_fsqrt": _fsqrt,
    "_M": _M,
    "_S": _S,
    "__builtins__": {"len": len, "min": min, "abs": abs, "int": int,
                     "float": float, "True": True, "False": False,
                     "None": None},
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
    program: "Program", start: int, stops: frozenset[int]
) -> list[tuple[int, Any]]:
    """Instructions of the block at ``start``: append until a control
    instruction, a stop address, the text end, or the fuse cap."""
    fast = program.fast_plan()
    tbase = program.text_base
    text_end = program.text_end
    insts: list[tuple[int, Any]] = []
    pc = start
    while True:
        fi = fast[(pc - tbase) >> 2]
        insts.append((pc, fi))
        if fi[0] in _CONTROL_KINDS or len(insts) >= _MAX_BLOCK:
            break
        pc += 4
        if pc in stops or pc >= text_end:
            break
    return insts


def _walk_blocks(
    program: "Program",
) -> Iterator[tuple[int, list[tuple[int, Any]]]]:
    """Every static block as ``(start, insts)``: the leaders in address
    order, then the follow-on blocks of runs split at the fuse cap."""
    leaders = _leaders(program)
    stops = frozenset(leaders)
    pending = sorted(leaders)
    seen = set(pending)
    while pending:
        start = pending.pop(0)
        insts = _collect_block(program, start, stops)
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
        insts = _collect_block(self.program, pc, self.safe_breaks)
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
        the same synced state a block ending at that address would.
        Compiled on first use into its own namespace (it shares the full
        block's function name) and never persisted.
        """
        entry = self.cuts.get((pc, n))
        if entry is None:
            insts = _collect_block(self.program, pc, self.safe_breaks)[:n]
            record = _compile_block(
                self.engine, self.geom, self.params, pc, insts
            )
            entry = _install([record], dict(_EXEC_GLOBALS))[pc]
            self.cuts[pc, n] = entry
        return entry


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
        "python": sys.implementation.cache_tag,
        "engine": engine,
        "program": program_digest(program),
        "geom": list(geom),
        "params": list(params_tuple) if params_tuple is not None else None,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:24]


def _disk_path(engine: str, key: str) -> "Path":
    from repro.snapshot import runcache

    return runcache.cache_dir() / "blockjit" / f"{engine}-{key}.marshal"


def _load_disk(
    engine: str, key: str
) -> tuple[dict[str, Any], dict[int, BlockEntry]] | None:
    """``(namespace, blocks)`` from the ``(key, records)`` blob, or
    ``None``: an unreadable or foreign-key entry is a miss, not an error."""
    from repro.snapshot import runcache

    if runcache.cache_disabled():
        return None
    ns = dict(_EXEC_GLOBALS)
    try:
        stored_key, records = marshal.loads(
            _disk_path(engine, key).read_bytes()
        )
        if stored_key != key:
            raise ValueError("blockjit entry written under another key")
        blocks = _install(records, ns)
    except (OSError, EOFError, KeyError, TypeError, ValueError):
        runcache.STATS["blockjit_misses"] += 1
        return None
    runcache.STATS["blockjit_hits"] += 1
    return ns, blocks


def _store_disk(engine: str, key: str, records: list[_Record]) -> None:
    from repro.snapshot import runcache

    if runcache.cache_disabled():
        return
    runcache.atomic_write(
        _disk_path(engine, key), marshal.dumps((key, records))
    )
    runcache.STATS["blockjit_stores"] += 1


def _build_table(
    program: "Program", engine: str, geom: _Geometry, params: Any,
    params_tuple: tuple | None,
) -> BlockTable:
    key = _disk_key(program, engine, geom, params_tuple)
    loaded = _load_disk(engine, key)
    if loaded is not None:
        return BlockTable(program, engine, geom, params, *loaded)
    records = [
        _compile_block(engine, geom, params, start, insts)
        for start, insts in _walk_blocks(program)
    ]
    ns = dict(_EXEC_GLOBALS)
    blocks = _install(records, ns)
    _store_disk(engine, key, records)
    return BlockTable(program, engine, geom, params, ns, blocks)


def _geometry(machine: Any) -> _Geometry:
    program = machine.program
    ic = machine.icache.config
    dc = machine.dcache.config
    return _Geometry(
        ic.block_shift, ic.num_sets, ic.assoc,
        dc.block_shift, dc.num_sets, dc.assoc,
        program.text_base, program.text_end,
    )


def block_table(machine: Any, engine: str, params: Any = None) -> BlockTable:
    """The (memoized) compiled block table for ``machine``'s program.

    Memoized on the Program keyed by engine, cache geometry and pipeline
    parameters, so cores sharing a program (and VISA instances sharing a
    workload) compile once per process; the compiled code additionally
    persists under ``.repro_cache/blockjit/``.
    """
    program = machine.program
    geom = _geometry(machine)
    params_tuple = tuple(astuple(params)) if params is not None else None
    memo_key = (engine, geom, params_tuple)
    tables = program._blockjit_tables  # noqa: SLF001 - cooperative memo
    table = tables.get(memo_key)
    if table is None:
        table = _build_table(program, engine, geom, params, params_tuple)
        tables[memo_key] = table
    return table


# --- dispatchers --------------------------------------------------------------


def _limit(max_instructions: int | None) -> int:
    """Instruction count a segment stops at: its budget, capped by the
    runaway guard (a segment retiring more than ``_RUNAWAY`` raises)."""
    if max_instructions is None:
        return _RUNAWAY + 1
    return min(max_instructions, _RUNAWAY + 1)


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
    wd = (
        honor_watchdog
        and not mmio.exceptions_masked
        and mmio._wd_enabled  # noqa: SLF001
    )
    st: list[Any] = [
        ft[0], ft[1], ft[2], ft[3], ft[4], ft[5], ft[6], ft[7],
        ic._tick, dc._tick,  # noqa: SLF001
        0, 0, 0, 0,  # ihits, imiss, dhits, dmiss
        0, 0, 0, 0,  # fetched, c_regread, c_regwrite, c_dcache
        state.pc, 0,  # pc, executed
        wd, mmio._wd_expiry,  # noqa: SLF001
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


def run_ooo(
    core: Any,
    table: BlockTable,
    max_instructions: int | None = None,
    honor_watchdog: bool = True,
) -> Any:
    """Block-dispatch drive of a :class:`ComplexCore` complex-mode segment.

    A segment with an instruction budget swaps in a truncated block
    (:meth:`BlockTable.cut`) for the block the budget ends inside, as
    :func:`run_inorder` does.
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
    dis_used: dict[int, int] = {}
    iss_used: dict[int, int] = {}
    port_used: dict[int, int] = {}
    inflight_stores: dict[int, tuple[int, int]] = {}
    ready = [0] * 64
    wd = (
        honor_watchdog
        and not mmio.exceptions_masked
        and mmio._wd_enabled  # noqa: SLF001
    )
    st: list[Any] = [
        0, 0, 0, 0, -1, 0, 0,  # bf, fc, gd, gc, gb, rd, lc
        ic._tick, dc._tick,  # noqa: SLF001
        0, 0, 0, 0,  # ihits, imiss, dhits, dmiss
        0, 0, 0, 0, 0, 0,  # cg, cbp, crr, crw, cdc, nmem
        state.pc, 0,  # pc, executed
        wd, mmio._wd_expiry,  # noqa: SLF001
        0, 0, 0, 0,  # ri, qi, li, ccn
        gshare.history, indirect.history,  # gh, ih
    ]
    words = machine.memory._words  # noqa: SLF001
    # Preallocated rings (-1 sentinel = not yet full at that cursor)
    # stand in for the reference's occupancy deques; its commit width
    # map is the in-code frontier pair st[6]/st[26]; predictor tables
    # are passed raw (reads/updates are inlined in the generated code,
    # histories live in st[27]/st[28]).
    robq = [-1] * params.rob_entries
    iqq = [-1] * params.iq_entries
    lsqq = [-1] * params.lsq_entries
    env: tuple[Any, ...] = (
        words, words.get,
        ic._sets, dc._sets,  # noqa: SLF001
        mmio, mmio.read, mmio.write,
        machine.data_read, machine.data_write,
        core.stall_cycles, base, honor_watchdog,
        gshare.table, indirect.table, indirect.table.get,
        dis_used, dis_used.get, iss_used, iss_used.get,
        port_used, port_used.get,
        robq, iqq, lsqq,
        inflight_stores, inflight_stores.get,
    )
    ir = state.int_regs
    fr = state.fp_regs
    blocks = table.blocks
    block_at = table.block_at
    pc = state.pc
    pruned_at = 0
    try:
        while True:
            entry = blocks.get(pc)
            if entry is None:
                entry = block_at(pc)
            if bounded and limit - st[20] < entry[1]:
                entry = table.cut(pc, limit - st[20])
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
                if st[20] - pruned_at >= _PRUNE_STRIDE:
                    # Keep the width maps cache-resident: every future
                    # dispatch probe starts at >= max(group_done, oldest
                    # live ROB commit) + 1 (both monotone; the ROB clamp
                    # applies forever once 128 committed), issue/port
                    # probes one cycle later still, so keys below those
                    # floors are dead and safe to drop between blocks.
                    pruned_at = st[20]
                    t = robq[st[23]]
                    floor = st[2] if st[2] > t else t
                    floor += 1
                    if len(dis_used) > _PRUNE_MIN:
                        keep = {
                            k: v for k, v in dis_used.items() if k >= floor
                        }
                        dis_used.clear()
                        dis_used.update(keep)
                    floor += 1
                    for used in (iss_used, port_used):
                        if len(used) > _PRUNE_MIN:
                            keep = {
                                k: v for k, v in used.items() if k >= floor
                            }
                            used.clear()
                            used.update(keep)
                continue
            now = base + st[6]
            if r == "h":
                state.halted = True
                return RunResult("halt", start_cycle, now, st[20])
            return RunResult(
                "watchdog", start_cycle, now, st[20],
                exception_cycle=min(now, st[22]),
            )
    finally:
        gshare.history = st[27]
        indirect.history = st[28]
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
        executed = st[20]
        if executed:
            counters["rename"] += executed
            counters["rob_write"] += executed
            counters["iq"] += executed
            counters["regread"] += st[15]
            counters["fu"] += executed
            counters["commit"] += executed
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


# --- cache-observability helpers (``repro cache stats`` / ``clear``) ----------


#: Entry suffixes on disk: current entries, plus legacy JSON entries (the
#: format before marshal blobs) that only ``clear_disk_cache`` removes.
_ENTRY_SUFFIXES = (".marshal", ".json")


def disk_cache_stats() -> dict:
    """On-disk blockjit cache stats plus in-process hit/miss/store counters."""
    from repro.snapshot import runcache

    directory = runcache.cache_dir() / "blockjit"
    entries = 0
    total = 0
    if directory.is_dir():
        for path in directory.iterdir():
            if path.is_file() and path.suffix in _ENTRY_SUFFIXES:
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
    return {
        "directory": str(directory),
        "entries": entries,
        "bytes": total,
        "hits": int(runcache.STATS["blockjit_hits"]),
        "misses": int(runcache.STATS["blockjit_misses"]),
        "stores": int(runcache.STATS["blockjit_stores"]),
    }


def clear_disk_cache() -> tuple[int, int]:
    """Delete the blockjit codegen cache; ``(files_removed, bytes_freed)``."""
    from repro.snapshot import runcache

    removed = freed = 0
    directory = runcache.cache_dir() / "blockjit"
    if not directory.is_dir():
        return 0, 0
    for path in directory.iterdir():
        if path.is_file() and path.suffix in (*_ENTRY_SUFFIXES, ".tmp"):
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
    try:
        directory.rmdir()
    except OSError:
        pass
    return removed, freed


__all__ = [
    "BlockTable",
    "CODEGEN_VERSION",
    "block_table",
    "clear_disk_cache",
    "disk_cache_stats",
    "run_inorder",
    "run_ooo",
]

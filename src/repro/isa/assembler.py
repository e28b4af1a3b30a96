"""Two-pass assembler for RTP-32.

Supported syntax
----------------

* Comments: ``#`` to end of line.
* Labels: ``name:`` optionally followed by an instruction.
* Segments: ``.text`` / ``.data``.
* Data directives: ``.word v, ...`` (integers or symbols), ``.float x, ...``,
  ``.space nbytes``, ``.align pow2``, ``.globl name`` (accepted, ignored).
* Analysis annotations:

  - ``.loopbound N`` — attaches a maximum iteration count to the next label
    defined in the text segment (the loop header).
  - ``.subtask K`` — marks the start of sub-task ``K`` *and* emits the
    standard sub-task prologue snippet (reset cycle counter, record the
    previous sub-task's actual execution time, advance the watchdog by the
    increment from ``__visa_incr[K]``).  See paper §2.2 and §4.3.
  - ``.taskend`` — emits the task epilogue snippet (record the final
    sub-task's AET, disable the watchdog).
  - ``.frame N`` — declares the stack-frame size (bytes) of the function
    starting at the current text address; ``repro lint`` cross-checks it
    against the prologue's actual ``sp`` adjustment.

* Pseudo-instructions: ``li``, ``la``, ``move``, ``not``, ``neg``, ``b``,
  ``beqz``, ``bnez``, ``bgt``, ``ble``, ``subi``, ``nop``.
* ``%hi(sym)`` / ``%lo(sym)`` relocation operators in immediates.

Sub-task snippets use the reserved registers ``at``, ``k0``, ``k1`` so they
never clobber program state, mirroring real runtime-system conventions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import AssemblerError, EncodingError
from repro.isa import layout
from repro.isa.encoding import encode_fields
from repro.isa.opcodes import BY_NAME, OpInfo
from repro.isa.program import Program
from repro.isa.registers import parse_fp_reg, parse_int_reg

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")
_HILO_RE = re.compile(r"^%(hi|lo)\(\s*([A-Za-z_.$][\w.$]*)\s*([+-]\s*\d+)?\s*\)$")
_MEM_RE = re.compile(r"^(.*)\(\s*(\$?\w+)\s*\)$")
_SYM_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")

#: Maximum sub-tasks a program may declare (sizes the auto-allocated
#: ``__visa_incr`` / ``__visa_aet`` arrays).
MAX_SUBTASKS = 64


@dataclass(slots=True)
class _PendingInst:
    """One concrete instruction awaiting pass-2 encoding."""

    mnemonic: str
    operands: list[str]
    line: int
    addr: int


@dataclass
class _DataItem:
    addr: int
    value: object  # int | float | str (symbol reference)
    line: int


@dataclass
class _Assembler:
    source: str
    text_base: int
    data_base: int
    insts: list[_PendingInst] = field(default_factory=list)
    data_items: list[_DataItem] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    loop_bounds: dict[int, int] = field(default_factory=dict)
    subtask_marks: dict[int, int] = field(default_factory=dict)
    source_map: dict[int, tuple[int, str]] = field(default_factory=dict)
    frame_sizes: dict[int, int] = field(default_factory=dict)

    def run(self) -> Program:
        self._pass1()
        self._allocate_visa_arrays()
        words = self._pass2()
        entry = self.symbols.get("main", self.symbols.get("_start", self.text_base))
        return Program(
            words=words,
            data={item.addr: self._data_value(item) for item in self.data_items},
            symbols=dict(self.symbols),
            loop_bounds=dict(self.loop_bounds),
            subtask_marks=dict(self.subtask_marks),
            entry=entry,
            text_base=self.text_base,
            data_base=self.data_base,
            source_map=dict(self.source_map),
            frame_sizes=dict(self.frame_sizes),
        )

    # -- pass 1 ---------------------------------------------------------------

    def _pass1(self) -> None:
        segment = "text"
        text_addr = self.text_base
        data_addr = self.data_base
        pending_loopbound: int | None = None
        max_subtask = -1
        # Instruction text -> its expansion; codegen repeats most lines.
        expansions: dict[str, list[tuple[str, list[str]]]] = {}

        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            while ":" in line:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                name, line = match.group(1), match.group(2).strip()
                if name in self.symbols:
                    raise AssemblerError(f"duplicate label {name!r}", lineno)
                if segment == "text":
                    self.symbols[name] = text_addr
                    if pending_loopbound is not None:
                        self.loop_bounds[text_addr] = pending_loopbound
                        pending_loopbound = None
                else:
                    self.symbols[name] = data_addr
            if not line:
                continue

            if not line.startswith("."):
                if segment != "text":
                    raise AssemblerError("instruction outside .text", lineno)
                expansion = expansions.get(line)
                if expansion is None:
                    expansion = self._expand(*_split_head(line), lineno)
                    expansions[line] = expansion
                entry = (lineno, raw)
                for mnem, ops in expansion:
                    self.insts.append(_PendingInst(mnem, ops, lineno, text_addr))
                    self.source_map[text_addr] = entry
                    text_addr += 4
                continue

            head, rest = _split_head(line)
            if head == ".text":
                segment = "text"
            elif head == ".data":
                segment = "data"
            elif head == ".globl":
                pass
            elif head == ".loopbound":
                pending_loopbound = self._parse_uint(rest, lineno)
            elif head == ".frame":
                if segment != "text":
                    raise AssemblerError(".frame outside .text", lineno)
                # Declares the stack-frame size of the function starting at
                # the current address (the directive follows its label).
                self.frame_sizes[text_addr] = self._parse_uint(rest, lineno)
            elif head == ".subtask":
                k = self._parse_uint(rest, lineno)
                if k > max_subtask + 1:
                    raise AssemblerError(
                        f"sub-task {k} declared before {max_subtask + 1}", lineno
                    )
                if k >= MAX_SUBTASKS:
                    raise AssemblerError(
                        f"sub-task index {k} exceeds MAX_SUBTASKS", lineno
                    )
                max_subtask = max(max_subtask, k)
                self.subtask_marks[text_addr] = k
                text_addr = self._emit_snippet(
                    _subtask_snippet(k), lineno, raw, text_addr
                )
            elif head == ".taskend":
                if max_subtask < 0:
                    raise AssemblerError(".taskend without .subtask", lineno)
                text_addr = self._emit_snippet(
                    _taskend_snippet(max_subtask), lineno, raw, text_addr
                )
            elif head in (".word", ".float", ".space", ".align"):
                if segment != "data":
                    raise AssemblerError(f"{head} outside .data", lineno)
                data_addr = self._data_directive(head, rest, lineno, data_addr)
            else:
                raise AssemblerError(f"unknown directive {head}", lineno)

        if pending_loopbound is not None:
            raise AssemblerError(".loopbound not followed by a label")

    def _emit_snippet(
        self,
        snippet: list[tuple[str, list[str]]],
        lineno: int,
        raw: str,
        text_addr: int,
    ) -> int:
        entry = (lineno, raw)
        for mnem, ops in snippet:
            for emnem, eops in self._expand(mnem, ", ".join(ops), lineno):
                self.insts.append(_PendingInst(emnem, eops, lineno, text_addr))
                self.source_map[text_addr] = entry
                text_addr += 4
        return text_addr

    def _data_directive(
        self, head: str, rest: str, lineno: int, data_addr: int
    ) -> int:
        if head == ".align":
            power = self._parse_uint(rest, lineno)
            step = 1 << power
            return (data_addr + step - 1) & ~(step - 1)
        if head == ".space":
            nbytes = self._parse_uint(rest, lineno)
            if nbytes % 4:
                raise AssemblerError(".space must be a multiple of 4", lineno)
            for offset in range(0, nbytes, 4):
                self.data_items.append(_DataItem(data_addr + offset, 0, lineno))
            return data_addr + nbytes
        values = [v.strip() for v in rest.split(",")] if rest else []
        if not values:
            raise AssemblerError(f"{head} needs at least one value", lineno)
        for value in values:
            if head == ".word":
                try:
                    self.data_items.append(
                        _DataItem(data_addr, self._parse_int(value, lineno), lineno)
                    )
                except AssemblerError:
                    # Symbol reference (possibly sym+offset); pass 2 resolves.
                    self.data_items.append(_DataItem(data_addr, value, lineno))
            else:  # .float
                try:
                    self.data_items.append(_DataItem(data_addr, float(value), lineno))
                except ValueError:
                    raise AssemblerError(f"bad float {value!r}", lineno) from None
            data_addr += 4
        return data_addr

    def _allocate_visa_arrays(self) -> None:
        """Reserve __visa_incr / __visa_aet after all explicit data."""
        if not self.subtask_marks:
            return
        n = max(self.subtask_marks.values()) + 1
        addr = self.data_base
        if self.data_items:
            addr = max(item.addr for item in self.data_items) + 4
        addr = (addr + 63) & ~63  # own cache line, keeps analysis clean
        for name in (layout.VISA_INCR_SYMBOL, layout.VISA_AET_SYMBOL):
            if name in self.symbols:
                raise AssemblerError(f"{name} is reserved")
            self.symbols[name] = addr
            for k in range(n):
                self.data_items.append(_DataItem(addr + 4 * k, 0, 0))
            addr += 4 * n
            addr = (addr + 63) & ~63

    # -- pseudo-instruction expansion ------------------------------------------

    def _expand(
        self, mnem: str, rest: str, lineno: int
    ) -> list[tuple[str, list[str]]]:
        ops = [o.strip() for o in rest.split(",")] if rest else []
        if mnem in BY_NAME:
            return [(mnem, ops)]

        def need(count: int) -> None:
            if len(ops) != count:
                raise AssemblerError(
                    f"{mnem} expects {count} operands, got {len(ops)}", lineno
                )

        if mnem == "nop":
            need(0)
            return [("sll", ["zero", "zero", "0"])]
        if mnem == "li":
            need(2)
            value = self._parse_int(ops[1], lineno)
            if -(1 << 15) <= value < (1 << 15):
                return [("addi", [ops[0], "zero", str(value)])]
            if 0 <= value < (1 << 16):
                return [("ori", [ops[0], "zero", str(value)])]
            unsigned = value & 0xFFFFFFFF
            high, low = unsigned >> 16, unsigned & 0xFFFF
            out = [("lui", [ops[0], str(high)])]
            if low:
                out.append(("ori", [ops[0], ops[0], str(low)]))
            return out
        if mnem == "la":
            need(2)
            return [
                ("lui", [ops[0], f"%hi({ops[1]})"]),
                ("ori", [ops[0], ops[0], f"%lo({ops[1]})"]),
            ]
        if mnem == "move":
            need(2)
            return [("add", [ops[0], ops[1], "zero"])]
        if mnem == "not":
            need(2)
            return [("nor", [ops[0], ops[1], "zero"])]
        if mnem == "neg":
            need(2)
            return [("sub", [ops[0], "zero", ops[1]])]
        if mnem == "b":
            need(1)
            return [("j", [ops[0]])]
        if mnem == "beqz":
            need(2)
            return [("beq", [ops[0], "zero", ops[1]])]
        if mnem == "bnez":
            need(2)
            return [("bne", [ops[0], "zero", ops[1]])]
        if mnem == "bgt":
            need(3)
            return [("blt", [ops[1], ops[0], ops[2]])]
        if mnem == "ble":
            need(3)
            return [("bge", [ops[1], ops[0], ops[2]])]
        if mnem == "subi":
            need(3)
            value = self._parse_int(ops[2], lineno)
            return [("addi", [ops[0], ops[1], str(-value)])]
        raise AssemblerError(f"unknown instruction {mnem!r}", lineno)

    # -- pass 2 ---------------------------------------------------------------

    def _pass2(self) -> list[int]:
        words = []
        # Lines without a PC-relative operand encode to the same word
        # wherever they sit; codegen repeats most of them many times.
        memo: dict[tuple[str, ...], int] = {}
        for pending in self.insts:
            key = (pending.mnemonic, *pending.operands)
            word = memo.get(key)
            if word is None:
                word = self._encode(pending)
                if key[0] not in _PC_RELATIVE:
                    memo[key] = word
            words.append(word)
        return words

    def _encode(self, pending: _PendingInst) -> int:
        info, slots = _SLOT_PLANS[pending.mnemonic]
        operands = pending.operands
        if len(slots) != len(operands):
            raise AssemblerError(
                f"{pending.mnemonic} expects {len(slots)} operands "
                f"({info.syntax}), got {len(operands)}",
                pending.line,
            )
        # rd, rs, rt, shamt, imm, target.
        fields = [0, 0, 0, 0, 0, 0]
        for (index, parse), operand in zip(slots, operands):
            if index is None:  # off(rs): an offset and a base register
                fields[_IMM], fields[_RS] = self._mem(operand, pending)
            else:
                fields[index] = parse(self, operand, pending)
        try:
            return encode_fields(info, *fields)
        except EncodingError as exc:
            raise AssemblerError(str(exc), pending.line) from exc

    def _int_reg(self, operand: str, pending: _PendingInst) -> int:
        try:
            return parse_int_reg(operand)
        except KeyError as exc:
            raise AssemblerError(str(exc), pending.line) from exc

    def _fp_reg(self, operand: str, pending: _PendingInst) -> int:
        try:
            return parse_fp_reg(operand)
        except KeyError as exc:
            raise AssemblerError(str(exc), pending.line) from exc

    def _shamt(self, operand: str, pending: _PendingInst) -> int:
        return self._parse_uint(operand, pending.line)

    def _imm_slot(self, operand: str, pending: _PendingInst) -> int:
        return self._imm(operand, pending.line)

    def _label(self, operand: str, pending: _PendingInst) -> int:
        """Branch offset in words from the next instruction."""
        target = self._symbol(operand, pending.line)
        offset = target - (pending.addr + 4)
        if offset % 4:
            raise AssemblerError(
                f"misaligned branch target {operand}", pending.line
            )
        return offset >> 2

    def _target(self, operand: str, pending: _PendingInst) -> int:
        """26-bit J-format target field."""
        target = self._symbol(operand, pending.line)
        if (target & 0xF0000000) != ((pending.addr + 4) & 0xF0000000):
            raise AssemblerError(
                f"jump target {operand} out of region", pending.line
            )
        return (target >> 2) & 0x3FFFFFF

    def _mem(self, operand: str, pending: _PendingInst) -> tuple[int, int]:
        """``off(base)`` -> (offset, base register)."""
        line = pending.line
        match = _MEM_RE.match(operand)
        if not match:
            raise AssemblerError(f"bad memory operand {operand!r}", line)
        offset_text = match.group(1).strip()
        offset = self._imm(offset_text, line) if offset_text else 0
        return offset, self._int_reg(match.group(2), pending)

    def _imm(self, text: str, line: int) -> int:
        match = text.startswith("%") and _HILO_RE.match(text)
        if match:
            which, name, offset = match.group(1), match.group(2), match.group(3)
            addr = self._symbol(name, line)
            if offset:
                addr += int(offset.replace(" ", ""))
            value = (addr >> 16) & 0xFFFF if which == "hi" else addr & 0xFFFF
            return value
        return self._parse_int(text, line)

    def _symbol(self, text: str, line: int) -> int:
        text = text.strip()
        if text in self.symbols:
            return self.symbols[text]
        # symbol+offset
        for sep in ("+", "-"):
            if sep in text[1:]:
                base, _, off = text.rpartition(sep)
                base = base.strip()
                if base in self.symbols and off.strip().isdigit():
                    delta = int(off.strip())
                    return self.symbols[base] + (delta if sep == "+" else -delta)
        try:
            return self._parse_int(text, line)
        except AssemblerError:
            raise AssemblerError(f"undefined symbol {text!r}", line) from None

    def _parse_int(self, text: str, line: int | None = None) -> int:
        try:
            return int(text.strip(), 0)
        except (ValueError, AttributeError):
            raise AssemblerError(f"bad integer {text!r}", line) from None

    def _parse_uint(self, text: str, line: int | None = None) -> int:
        value = self._parse_int(text, line)
        if value < 0:
            raise AssemblerError(f"expected non-negative integer, got {value}", line)
        return value

    def _data_value(self, item: _DataItem) -> object:
        if isinstance(item.value, str):
            try:
                return self._symbol(item.value, item.line)
            except AssemblerError:
                raise AssemblerError(
                    f"undefined symbol {item.value!r} in .word", item.line
                ) from None
        return item.value


_RD, _RS, _RT, _SHAMT, _IMM, _TARGET = range(6)

#: Operand slot name -> (field index, parser).  ``off(rs)`` fills two
#: fields (index None, see ``_Assembler._mem``).
_SLOT_PARSERS = {
    "rd": (_RD, _Assembler._int_reg),
    "rs": (_RS, _Assembler._int_reg),
    "rt": (_RT, _Assembler._int_reg),
    "fd": (_RD, _Assembler._fp_reg),
    "fs": (_RS, _Assembler._fp_reg),
    "ft": (_RT, _Assembler._fp_reg),
    "shamt": (_SHAMT, _Assembler._shamt),
    "imm": (_IMM, _Assembler._imm_slot),
    "label": (_IMM, _Assembler._label),
    "target": (_TARGET, _Assembler._target),
    "off(rs)": (None, _Assembler._mem),
}

#: Mnemonics with a PC-relative operand (branch label, jump target).
_PC_RELATIVE = frozenset(
    name for name, info in BY_NAME.items()
    if "label" in info.syntax or "target" in info.syntax
)

#: Mnemonic -> (OpInfo, one (field index, parser) per operand slot).
_SLOT_PLANS: dict[str, tuple[OpInfo, tuple]] = {
    name: (info, tuple(_SLOT_PARSERS[s] for s in info.syntax.split(",") if s))
    for name, info in BY_NAME.items()
}


def _split_head(line: str) -> tuple[str, str]:
    """``"Add t0, t1"`` -> ``("add", "t0, t1")``."""
    parts = line.split(None, 1)
    return parts[0].lower(), parts[1].strip() if len(parts) > 1 else ""


def _subtask_snippet(k: int) -> list[tuple[str, list[str]]]:
    """Instructions emitted at the start of sub-task ``k`` (paper §2.2/§4.3).

    For k == 0: reset the cycle counter, load the initial watchdog value
    from ``__visa_incr[0]``, and enable the watchdog.
    For k > 0: record sub-task k-1's AET, reset the cycle counter, and
    advance the watchdog deadline by ``__visa_incr[k]``.
    """
    mmio_hi = str(layout.MMIO_BASE >> 16)
    cyc = str(layout.CYCLE_COUNT & 0xFFFF)
    if k == 0:
        return [
            ("lui", ["k1", mmio_hi]),
            ("sw", ["zero", f"{cyc}(k1)"]),
            ("la", ["k0", layout.VISA_INCR_SYMBOL]),
            ("lw", ["k0", "0(k0)"]),
            ("sw", ["k0", f"{layout.WATCHDOG_COUNT & 0xFFFF}(k1)"]),
            ("addi", ["at", "zero", "1"]),
            ("sw", ["at", f"{layout.WATCHDOG_CTRL & 0xFFFF}(k1)"]),
        ]
    return [
        ("lui", ["k1", mmio_hi]),
        ("lw", ["k0", f"{cyc}(k1)"]),
        ("la", ["at", layout.VISA_AET_SYMBOL]),
        ("sw", ["k0", f"{4 * (k - 1)}(at)"]),
        ("sw", ["zero", f"{cyc}(k1)"]),
        ("la", ["at", layout.VISA_INCR_SYMBOL]),
        ("lw", ["k0", f"{4 * k}(at)"]),
        ("sw", ["k0", f"{layout.WATCHDOG_ADD & 0xFFFF}(k1)"]),
    ]


def _taskend_snippet(last_k: int) -> list[tuple[str, list[str]]]:
    """Instructions emitted at task end: record final AET, disable watchdog."""
    mmio_hi = str(layout.MMIO_BASE >> 16)
    return [
        ("lui", ["k1", mmio_hi]),
        ("lw", ["k0", f"{layout.CYCLE_COUNT & 0xFFFF}(k1)"]),
        ("la", ["at", layout.VISA_AET_SYMBOL]),
        ("sw", ["k0", f"{4 * last_k}(at)"]),
        ("sw", ["zero", f"{layout.WATCHDOG_CTRL & 0xFFFF}(k1)"]),
    ]


def assemble(
    source: str,
    text_base: int = layout.TEXT_BASE,
    data_base: int = layout.DATA_BASE,
) -> Program:
    """Assemble RTP-32 source text into a :class:`Program`.

    Args:
        source: Assembly source.
        text_base: Base address for the text segment.
        data_base: Base address for the data segment.

    Raises:
        AssemblerError: on any syntax or semantic error (with line number).
    """
    return _Assembler(source, text_base, data_base).run()

"""Loadable program image: code, data, symbols, and analysis annotations.

A :class:`Program` is what the assembler (and therefore the mini-C compiler)
produces, what both pipeline simulators load, and what the static WCET
analyzer consumes.  Besides the raw words it carries the side tables a
timing analyzer needs:

* ``loop_bounds`` — maximum iteration counts per loop-header address
  (from ``.loopbound`` directives / mini-C ``for`` bounds),
* ``subtask_marks`` — address of the first instruction of each sub-task
  (from ``.subtask`` directives), used to partition the task for EQ 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.isa import layout
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction


@dataclass
class Program:
    """An assembled RTP-32 program.

    Attributes:
        words: Encoded instruction words, in order from ``text_base``.
        data: Initial data image, word address -> value (int or float).
        symbols: Label name -> absolute address.
        loop_bounds: Loop-header instruction address -> max iterations.
        subtask_marks: Instruction address -> sub-task index (0-based).
        entry: Address execution starts at.
        text_base: Base address of the text segment.
        data_base: Base address of the data segment.
        source_map: Instruction address -> (line number, source text).
        frame_sizes: Function entry address -> declared stack-frame bytes
            (from ``.frame`` directives); advisory metadata the static
            analyzer cross-checks against the actual prologue.
    """

    words: list[int]
    data: dict[int, object]
    symbols: dict[str, int]
    loop_bounds: dict[int, int] = field(default_factory=dict)
    subtask_marks: dict[int, int] = field(default_factory=dict)
    entry: int = layout.TEXT_BASE
    text_base: int = layout.TEXT_BASE
    data_base: int = layout.DATA_BASE
    source_map: dict[int, tuple[int, str]] = field(default_factory=dict)
    frame_sizes: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._insts: list[Instruction] = [
            decode(word, self.text_base + 4 * i)
            for i, word in enumerate(self.words)
        ]
        self._fast_plan: list | None = None
        # Compiled block tables (repro.isa.blockjit), keyed by
        # (engine, cache geometry, pipeline params).
        self._blockjit_tables: dict = {}
        # (format version, digest) memo of repro.snapshot.state.program_digest.
        self._digest: tuple[int, str] | None = None

    # -- code access ---------------------------------------------------------

    @property
    def instructions(self) -> list[Instruction]:
        """Decoded instructions, in address order."""
        return self._insts

    @property
    def text_end(self) -> int:
        """First address past the text segment."""
        return self.text_base + 4 * len(self.words)

    def contains(self, addr: int) -> bool:
        """True when ``addr`` holds an instruction of this program."""
        return self.text_base <= addr < self.text_end and addr % 4 == 0

    def inst_at(self, addr: int) -> Instruction:
        """Return the instruction at ``addr``.

        Raises:
            ReproError: if ``addr`` is outside the text segment.
        """
        if not self.contains(addr):
            raise ReproError(f"no instruction at {addr:#x}")
        return self._insts[(addr - self.text_base) >> 2]

    def fast_plan(self) -> list:
        """Per-instruction plan metadata (computed once).

        See :mod:`repro.isa.fastexec` for the entry layout.  The block
        emitters of :mod:`repro.isa.blockjit` generate code from it.
        """
        if self._fast_plan is None:
            from repro.isa.fastexec import build_plan

            self._fast_plan = build_plan(self._insts)
        return self._fast_plan

    def address_of(self, symbol: str) -> int:
        """Return the address of ``symbol``.

        Raises:
            KeyError: if the symbol is not defined.
        """
        return self.symbols[symbol]

    # -- VISA metadata --------------------------------------------------------

    @property
    def num_subtasks(self) -> int:
        """Number of sub-tasks marked in this program (0 if unmarked)."""
        if not self.subtask_marks:
            return 0
        return max(self.subtask_marks.values()) + 1

    def subtask_boundaries(self) -> list[int]:
        """Sub-task start addresses in sub-task order.

        Raises:
            ReproError: if marks are missing or out of order.
        """
        by_index: dict[int, int] = {}
        for addr, idx in self.subtask_marks.items():
            if idx in by_index:
                raise ReproError(f"duplicate sub-task index {idx}")
            by_index[idx] = addr
        n = self.num_subtasks
        if sorted(by_index) != list(range(n)):
            raise ReproError("sub-task indices are not contiguous from 0")
        addrs = [by_index[i] for i in range(n)]
        if addrs != sorted(addrs):
            raise ReproError("sub-task marks are not in address order")
        return addrs

    def describe(self, addr: int) -> str:
        """Human-readable location string for diagnostics."""
        if addr in self.source_map:
            line, text = self.source_map[addr]
            return f"{addr:#x} (line {line}: {text.strip()})"
        return f"{addr:#x}"

"""Dynamic in-order core: the explicitly-safe ``simple-fixed`` processor.

Architectural execution is driven in program order; timing comes from the
shared in-order engine recurrence.  The same class also implements the
complex core's *simple mode*: the OOO core instantiates it over its own
architectural state and caches, with the dynamic predictor disabled (static
BTFN prediction is intrinsic to this engine).

Watchdog and cycle-counter devices are honoured at the cycle the accessing
instruction occupies the memory stage, matching the memory-mapped interface
described in paper §2.2.

Two execution paths share this class:

* :meth:`InOrderCore.run` — the fast path.  It runs generated block code
  (:mod:`repro.isa.blockjit`), which inlines the
  :func:`repro.pipelines.inorder_engine.advance` recurrence and the
  dict-LRU cache access into each block, batches event counters and
  cache statistics, and flushes them when the segment ends.  Bounded
  segments (an instruction budget, or breakpoints inside a block) run
  the same code with the last block truncated.
* :meth:`InOrderCore.run_reference` — the original loop over
  :func:`repro.isa.semantics.execute` + :func:`advance`, kept as the
  differential oracle (``tests/test_blockjit.py`` runs both on the same
  programs and segment budgets and requires identical architectural
  state, cycles, counters, and cache statistics).

The two paths keep separate pipeline-timing state, so a single core must
use one path consistently between :meth:`drain` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.isa import blockjit, layout
from repro.isa.semantics import execute
from repro.memory.machine import Machine, mem_stall_cycles
from repro.pipelines.inorder_engine import TimingState, advance
from repro.pipelines.state import CoreState


@dataclass
class RunResult:
    """Outcome of one :meth:`InOrderCore.run` segment.

    Attributes:
        reason: ``"halt"``, ``"watchdog"`` (missed-checkpoint exception), or
            ``"limit"`` (instruction budget exhausted).
        start_cycle: Core cycle at segment start.
        end_cycle: Core cycle when the segment ended (pipeline drained).
        exception_cycle: Cycle the watchdog expired (reason "watchdog" only).
        instructions: Instructions retired in this segment.
    """

    reason: str
    start_cycle: int
    end_cycle: int
    instructions: int
    exception_cycle: int | None = None

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


class InOrderCore:
    """The 6-stage scalar in-order pipeline (paper §3.1), executing for real."""

    #: Event-counter key prefix, distinguishing simple-fixed accounting from
    #: the complex core running in simple mode.
    def __init__(
        self,
        machine: Machine,
        state: CoreState | None = None,
        freq_hz: float = 1e9,
        counter_prefix: str = "",
        train_gshare=None,
        train_indirect=None,
    ):
        self.machine = machine
        self.state = state or CoreState(pc=machine.program.entry)
        self.freq_hz = freq_hz
        self.stall_cycles = mem_stall_cycles(freq_hz)
        self.counter_prefix = counter_prefix
        # Optional predictor-training hooks for the complex core's simple
        # mode: prediction stays static BTFN (the VISA), but branch
        # outcomes keep flowing into the dynamic predictors' update path
        # so complex mode does not restart cold after a recovery.  See
        # DESIGN.md §5b.
        self.train_gshare = train_gshare
        self.train_indirect = train_indirect
        pfx = counter_prefix
        self._ckeys = (
            pfx + "icache",
            pfx + "fetch",
            pfx + "dcache",
            pfx + "regread",
            pfx + "regwrite",
            pfx + "fu",
        )
        self._timing = TimingState()
        self._timing_base = self.state.now
        self._reset_fast_timing()

    def set_frequency(self, freq_hz: float) -> None:
        """Change clock frequency (between segments; pipeline is drained)."""
        self.freq_hz = freq_hz
        self.stall_cycles = mem_stall_cycles(freq_hz)

    def _reset_fast_timing(self) -> None:
        # The TimingState defaults, flattened into mutable locals-friendly
        # storage: [last_fetch, redirect, ex_free, mem_free, prev_mem_start,
        # front0, front1, front2] plus a 64-slot reg-ready array (int reg n
        # at n, fp reg n at 32+n).  A 0 entry means "no constraint", which
        # matches an absent dict key: ex_start is always >= _FRONT_DEPTH.
        self._fast_timing = [-1, 0, -1, -1, 0, 0, 0, 0]
        self._fast_ready = [0] * 64

    def drain(self) -> None:
        """Reset pipeline timing state (used at mode/frequency switches)."""
        self._timing = TimingState()
        self._timing_base = self.state.now
        self._reset_fast_timing()

    def run(
        self,
        max_instructions: int | None = None,
        honor_watchdog: bool = True,
        break_addrs: frozenset[int] | None = None,
    ) -> RunResult:
        """Execute until halt, a missed-checkpoint exception, or the budget.

        The watchdog only interrupts execution when the MMIO device has
        exceptions unmasked *and* ``honor_watchdog`` is True (the VISA
        runtime masks it in simple mode, per §2.2).

        ``break_addrs`` stops execution (reason ``"breakpoint"``) just
        before an instruction at one of those addresses executes; used by
        calibration tooling to attribute events to sub-tasks.

        Every segment runs on generated block code
        (:mod:`repro.isa.blockjit`); a budget or a breakpoint that ends
        the segment inside a block runs a truncated copy of that block.
        Segments share pipeline-timing state, so they resume exactly
        where the last one stopped.  :meth:`run_reference` is the
        behaviourally-identical oracle it is tested against.
        """
        table = blockjit.block_table(self.machine, "inorder")
        return blockjit.run_inorder(
            self, table, max_instructions, honor_watchdog, break_addrs
        )

    def run_reference(
        self,
        max_instructions: int | None = None,
        honor_watchdog: bool = True,
        break_addrs: frozenset[int] | None = None,
    ) -> RunResult:
        """Reference implementation of :meth:`run` (the differential oracle).

        One instruction at a time through :func:`repro.isa.semantics.execute`
        and :func:`repro.pipelines.inorder_engine.advance`, exactly as the
        pre-specialization core did.  Kept verbatim so the fast loop can be
        tested against it end to end; uses its own pipeline-timing state, so
        do not interleave with :meth:`run` on one core without a
        :meth:`drain` in between.
        """
        state = self.state
        machine = self.machine
        program = machine.program
        mmio = machine.mmio
        icache = machine.icache
        dcache = machine.dcache
        counters = state.counters
        pfx = self.counter_prefix
        timing = self._timing
        base = self._timing_base
        stall = self.stall_cycles

        start_cycle = state.now
        executed = 0
        if state.halted:
            return RunResult("halt", start_cycle, start_cycle, 0)

        while True:
            if max_instructions is not None and executed >= max_instructions:
                return RunResult("limit", start_cycle, state.now, executed)
            if break_addrs is not None and state.pc in break_addrs and executed:
                return RunResult("breakpoint", start_cycle, state.now, executed)

            inst = program.inst_at(state.pc)

            icache_extra = 0 if icache.access(state.pc) else stall
            counters[pfx + "icache"] += 1
            counters[pfx + "fetch"] += 1

            result = execute(inst, state.read_int, state.read_fp)

            control_penalty = False
            if inst.is_branch:
                predicted_taken = inst.is_backward_branch()
                control_penalty = predicted_taken != result.taken
                if self.train_gshare is not None:
                    self.train_gshare.update(state.pc, result.taken)
            elif inst.is_indirect_jump:
                control_penalty = True
                if self.train_indirect is not None:
                    self.train_indirect.update(state.pc, result.target)

            dcache_extra = 0
            mmio_addr = None
            if inst.is_mem:
                addr = result.eff_addr
                if layout.is_mmio(addr):
                    mmio_addr = addr
                else:
                    counters[pfx + "dcache"] += 1
                    if not dcache.access(addr):
                        dcache_extra = stall

            times = advance(timing, inst, icache_extra, dcache_extra, control_penalty)
            now = base + times.writeback

            if inst.is_load:
                if mmio_addr is not None:
                    value = mmio.read(mmio_addr, base + times.mem_start)
                else:
                    value, _ = machine.data_read(result.eff_addr, now)
                state.write_reg(inst.dest, value)
            elif inst.is_store:
                if mmio_addr is not None:
                    mmio.write(mmio_addr, result.store_value, base + times.mem_start)
                else:
                    machine.data_write(result.eff_addr, result.store_value, now)
            elif inst.dest is not None:
                state.write_reg(inst.dest, result.value)

            counters[pfx + "regread"] += len(inst.sources)
            if inst.dest is not None:
                counters[pfx + "regwrite"] += 1
            counters[pfx + "fu"] += 1

            state.pc = result.target if result.target is not None else inst.addr + 4
            state.now = now
            state.instret += 1
            executed += 1

            if result.halt:
                state.halted = True
                return RunResult("halt", start_cycle, state.now, executed)

            if (
                honor_watchdog
                and not mmio.exceptions_masked
                and mmio.watchdog_expired(state.now)
            ):
                # Report the architecturally precise expiry cycle; in-flight
                # instructions drain (state.now may exceed it slightly).
                exception_cycle = min(state.now, _watchdog_expiry(mmio))
                return RunResult(
                    "watchdog",
                    start_cycle,
                    state.now,
                    executed,
                    exception_cycle=exception_cycle,
                )

            if executed > 200_000_000:  # pragma: no cover - runaway guard
                raise SimulationError("instruction budget exceeded (runaway?)")


def _watchdog_expiry(mmio) -> int:
    """Internal: absolute cycle the enabled watchdog expires at."""
    return mmio._wd_expiry  # noqa: SLF001 - cooperative access within package

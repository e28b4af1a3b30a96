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

* :meth:`InOrderCore.run` — the hot path.  It consumes the program's
  precompiled fast plan (:mod:`repro.isa.fastexec`), inlines the
  :func:`repro.pipelines.inorder_engine.advance` recurrence into loop
  locals, inlines the dict-LRU cache access, and batches event counters
  and cache statistics into locals flushed when the segment ends.
* :meth:`InOrderCore.run_reference` — the original loop over
  :func:`repro.isa.semantics.execute` + :func:`advance`, kept as the
  differential oracle (``tests/test_fastexec.py`` runs both on the same
  programs and requires identical architectural state, cycles, counters,
  and cache statistics).

The two paths keep separate pipeline-timing state, so a single core must
use one path consistently between :meth:`drain` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError, SimulationError
from repro.isa import blockjit, layout
from repro.isa.semantics import execute
from repro.memory.machine import Machine, mem_stall_cycles
from repro.pipelines.inorder_engine import (
    BRANCH_PENALTY,
    _FRONT_DEPTH,
    TimingState,
    advance,
)
from repro.pipelines.state import CoreState

#: Cycles from a control-penalty instruction's ex_end to the redirected
#: fetch (the inlined form of ``ex_end + BRANCH_PENALTY - _FRONT_DEPTH + 1``).
_REDIRECT_OFFSET = BRANCH_PENALTY - _FRONT_DEPTH + 1

_MMIO_BASE = layout.MMIO_BASE


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

        Full-run segments (no instruction budget, breakpoints only at
        block-leader addresses) dispatch through the basic-block JIT
        (:mod:`repro.isa.blockjit`); every other segment uses the
        specialized interpreter loop (:meth:`_run_interp`).  The two share
        pipeline-timing state and are bit-identical, so segments may
        interleave freely.  :meth:`run_reference` is the
        behaviourally-identical oracle both are tested against.
        """
        if max_instructions is None:
            table = blockjit.block_table(self.machine, "inorder")
            if break_addrs is None or break_addrs <= table.safe_breaks:
                return blockjit.run_inorder(
                    self, table, honor_watchdog, break_addrs
                )
        return self._run_interp(max_instructions, honor_watchdog, break_addrs)

    def _run_interp(
        self,
        max_instructions: int | None = None,
        honor_watchdog: bool = True,
        break_addrs: frozenset[int] | None = None,
    ) -> RunResult:
        """The specialized per-instruction hot loop (see :meth:`run`)."""
        state = self.state
        machine = self.machine
        program = machine.program
        mmio = machine.mmio
        fast = program.fast_plan()
        tbase = program.text_base
        tlen = program.text_end - tbase
        words = machine.memory._words  # noqa: SLF001 - hot-path inlining
        ir = state.int_regs
        fr = state.fp_regs
        stall = self.stall_cycles
        train_gshare = self.train_gshare
        train_indirect = self.train_indirect

        # Inlined dict-LRU caches (must mirror Cache.access exactly).
        ic = machine.icache
        dc = machine.dcache
        isets = ic._sets  # noqa: SLF001
        dsets = dc._sets  # noqa: SLF001
        insets = ic.config.num_sets
        dnsets = dc.config.num_sets
        ishift = ic.config.block_shift
        dshift = dc.config.block_shift
        iassoc = ic.config.assoc
        dassoc = dc.config.assoc
        itick = ic._tick  # noqa: SLF001
        dtick = dc._tick  # noqa: SLF001
        ihits = imiss = dhits = dmiss = 0

        # Inlined timing recurrence state (see inorder_engine.advance).
        base = self._timing_base
        ft = self._fast_timing
        last_fetch, redirect, ex_free, mem_free, prev_mem_start, f0, f1, f2 = ft
        ready = self._fast_ready

        # Batched event counters; flushed (nonzero only, mirroring the
        # reference's touch pattern) when the segment ends.
        fetched = 0  # icache + fetch events (incremented before execute)
        c_regread = 0
        c_regwrite = 0
        c_dcache = 0

        masked = mmio.exceptions_masked

        pc = state.pc
        now = state.now
        start_cycle = state.now
        executed = 0
        limit = -1 if max_instructions is None else max_instructions
        if state.halted:
            return RunResult("halt", start_cycle, start_cycle, 0)

        try:
            while True:
                if executed == limit:
                    return RunResult("limit", start_cycle, now, executed)
                if break_addrs is not None and pc in break_addrs and executed:
                    return RunResult("breakpoint", start_cycle, now, executed)

                i = pc - tbase
                if i < 0 or i >= tlen or i & 3:
                    raise ReproError(f"no instruction at {pc:#x}")
                (
                    kind, ex, src_keys, dkey, wbank, dnum, nsrc, lat,
                    npc, starget, ptaken, inst,
                ) = fast[i >> 2]

                # I-cache access (inlined Cache.access).
                blk = pc >> ishift
                way = isets[blk % insets]
                if blk in way:
                    way[blk] = itick
                    itick += 1
                    ihits += 1
                    icache_extra = 0
                else:
                    way[blk] = itick
                    itick += 1
                    if len(way) > iassoc:
                        del way[min(way, key=way.__getitem__)]
                    imiss += 1
                    icache_extra = stall
                fetched += 1

                # Execute (specialized closure), control handling, and the
                # D-cache access for memory instructions.
                control_penalty = False
                dcache_extra = 0
                if kind == 0:  # K_ALU
                    value = ex(ir, fr)
                elif kind == 1:  # K_LOAD
                    addr = ex(ir)
                    if addr >= _MMIO_BASE:
                        mmio_load = True
                    else:
                        mmio_load = False
                        c_dcache += 1
                        blk = addr >> dshift
                        way = dsets[blk % dnsets]
                        if blk in way:
                            way[blk] = dtick
                            dtick += 1
                            dhits += 1
                        else:
                            way[blk] = dtick
                            dtick += 1
                            if len(way) > dassoc:
                                del way[min(way, key=way.__getitem__)]
                            dmiss += 1
                            dcache_extra = stall
                elif kind == 2:  # K_STORE
                    addr, store_value = ex(ir, fr)
                    if addr < _MMIO_BASE:
                        c_dcache += 1
                        blk = addr >> dshift
                        way = dsets[blk % dnsets]
                        if blk in way:
                            way[blk] = dtick
                            dtick += 1
                            dhits += 1
                        else:
                            way[blk] = dtick
                            dtick += 1
                            if len(way) > dassoc:
                                del way[min(way, key=way.__getitem__)]
                            dmiss += 1
                            dcache_extra = stall
                elif kind == 3:  # K_BRANCH
                    taken = ex(ir)
                    control_penalty = ptaken != taken
                    if train_gshare is not None:
                        train_gshare.update(pc, taken)
                elif kind == 5:  # K_INDIRECT
                    target = ex(ir)
                    control_penalty = True
                    if train_indirect is not None:
                        train_indirect.update(pc, target)
                # K_JUMP (4) and K_HALT (6): nothing to execute.

                # Timing recurrence (inlined inorder_engine.advance).
                fetch = last_fetch + 1
                if redirect > fetch:
                    fetch = redirect
                if f0 > fetch:
                    fetch = f0
                fetch += icache_extra
                ex_start = fetch + _FRONT_DEPTH
                t = ex_free + 1
                if t > ex_start:
                    ex_start = t
                if prev_mem_start > ex_start:
                    ex_start = prev_mem_start
                for sk in src_keys:
                    t = ready[sk]
                    if t > ex_start:
                        ex_start = t
                ex_end = ex_start + lat - 1
                mem_start = ex_end + 1
                t = mem_free + 1
                if t > mem_start:
                    mem_start = t
                mem_end = mem_start + dcache_extra
                if dkey >= 0:
                    ready[dkey] = mem_end + 1 if kind == 1 else ex_end + 1
                last_fetch = fetch
                ex_free = ex_end
                mem_free = mem_end
                prev_mem_start = mem_start
                f0 = f1
                f1 = f2
                f2 = ex_start
                if control_penalty:
                    redirect = ex_end + _REDIRECT_OFFSET
                now = base + mem_end + 1

                # Architectural side effects and next PC.
                if kind == 0:
                    if wbank == 1:
                        ir[dnum] = value
                    elif wbank == 2:
                        fr[dnum] = value
                    pc = npc
                elif kind == 1:
                    if mmio_load:
                        value = mmio.read(addr, base + mem_start)
                    else:
                        if addr & 3 or tbase <= addr < tbase + tlen:
                            machine.data_read(addr, now)  # raises precisely
                        value = words.get(addr, 0)
                    if wbank == 1:
                        ir[dnum] = value
                    elif wbank == 2:
                        fr[dnum] = value
                    pc = npc
                elif kind == 2:
                    if addr >= _MMIO_BASE:
                        mmio.write(addr, store_value, base + mem_start)
                        masked = mmio.exceptions_masked
                    else:
                        if addr & 3 or tbase <= addr < tbase + tlen:
                            machine.data_write(addr, store_value, now)
                        if store_value.__class__ is int:
                            words[addr] = (
                                (store_value + 0x80000000) & 0xFFFFFFFF
                            ) - 0x80000000
                        else:
                            words[addr] = store_value
                    pc = npc
                elif kind == 3:
                    pc = starget if taken else npc
                elif kind == 4:  # J / JAL
                    if wbank == 1:
                        ir[dnum] = npc
                    pc = starget
                elif kind == 5:  # JR / JALR
                    if wbank == 1:
                        ir[dnum] = npc
                    pc = target
                else:  # K_HALT
                    pc = npc

                c_regread += nsrc
                if dkey >= 0:
                    c_regwrite += 1
                executed += 1

                if kind == 6:
                    state.halted = True
                    return RunResult("halt", start_cycle, now, executed)

                if honor_watchdog and not masked and mmio.watchdog_expired(now):
                    # Report the architecturally precise expiry cycle;
                    # in-flight instructions drain (now may exceed it).
                    exception_cycle = min(now, _watchdog_expiry(mmio))
                    return RunResult(
                        "watchdog",
                        start_cycle,
                        now,
                        executed,
                        exception_cycle=exception_cycle,
                    )

                if executed > 200_000_000:  # pragma: no cover - runaway guard
                    raise SimulationError("instruction budget exceeded (runaway?)")
        finally:
            # Flush batched state back so every exit (return *or* raise)
            # leaves the core observationally identical to run_reference.
            state.pc = pc
            state.now = now
            state.instret += executed
            ft[0] = last_fetch
            ft[1] = redirect
            ft[2] = ex_free
            ft[3] = mem_free
            ft[4] = prev_mem_start
            ft[5] = f0
            ft[6] = f1
            ft[7] = f2
            ic._tick = itick  # noqa: SLF001
            dc._tick = dtick  # noqa: SLF001
            ics = ic.stats
            ics.hits += ihits
            ics.misses += imiss
            dcs = dc.stats
            dcs.hits += dhits
            dcs.misses += dmiss
            if fetched:
                counters = state.counters
                k_ic, k_fe, k_dc, k_rr, k_rw, k_fu = self._ckeys
                counters[k_ic] += fetched
                counters[k_fe] += fetched
                if executed:
                    counters[k_rr] += c_regread
                    counters[k_fu] += executed
                if c_regwrite:
                    counters[k_rw] += c_regwrite
                if c_dcache:
                    counters[k_dc] += c_dcache

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

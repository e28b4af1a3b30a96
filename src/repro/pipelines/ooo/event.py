"""Event-driven complex-core interpreter.

The specialized per-instruction loop behind :meth:`ComplexCore.run`.
It replaces the per-cycle scan structures of
:meth:`ComplexCore.run_reference` with event-driven equivalents (the
same transformation :mod:`repro.isa.blockjit` applies in generated
code):

* **ROB/IQ/LSQ rings** — the occupancy deques become preallocated
  rings indexed by monotone cursors.  A ring slot holds the commit (or
  issue) cycle of the entry ``N`` instructions back, exactly the value
  ``deque[0]`` exposes once the deque is full; the ``-1`` sentinel in
  unwritten slots can never clamp dispatch (dispatch is always >= 1),
  which reproduces the not-yet-full case without a length check.
* **Commit frontier pair** — in-order commit with monotone candidates
  means the 4-wide commit bandwidth map degenerates to the pair
  (frontier cycle, slots used at the frontier): a candidate at the
  frontier fills a free slot or pushes the frontier one cycle; a
  candidate beyond it becomes the new frontier.  No dict, no scan.
* **Inlined predictors** — the gshare/indirect predict+update calls
  become straight-line table arithmetic over the standard 2^16
  geometry with the histories kept in locals (flushed back to the
  predictor objects on every exit, so ``dump_state`` agrees).
* **Width-map pruning** — the dispatch/issue/port cycle maps only ever
  receive keys at or above ``max(group_done, oldest live ROB commit) +
  1`` (one more for issue/port), so keys below that floor are dead;
  they are dropped in bulk every :data:`~repro.isa.blockjit._PRUNE_STRIDE`
  instructions to keep the dicts cache-resident on long runs.

Every replacement is exact — same cycles, same architectural effects,
same counter totals, same predictor state — which the differential
fuzz suite (``tests/test_ooo_event.py``) and the CI parity matrix
enforce against :meth:`ComplexCore.run_reference`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ReproError, SimulationError
from repro.isa import layout
from repro.isa.blockjit import _PRUNE_MIN, _PRUNE_STRIDE
from repro.pipelines.inorder import RunResult

if TYPE_CHECKING:
    from repro.pipelines.ooo.core import ComplexCore

_MMIO_BASE = layout.MMIO_BASE


def run_interp_event(
    core: "ComplexCore",
    max_instructions: int | None = None,
    honor_watchdog: bool = True,
) -> RunResult:
    """The complex-core interpreter loop behind :meth:`ComplexCore.run`."""
    state = core.state
    machine = core.machine
    program = machine.program
    mmio = machine.mmio
    params = core.params
    gshare = core.gshare
    indirect = core.indirect
    # Inlined predictors (standard 2^16 geometry is checked by
    # ComplexCore.run before this loop is entered).
    gt = gshare.table
    it = indirect.table
    it_get = it.get
    gh = gshare.history
    ih = indirect.history

    fast = program.fast_plan()
    tbase = program.text_base
    tlen = program.text_end - tbase
    words = machine.memory._words  # noqa: SLF001 - hot-path inlining
    ir = state.int_regs
    fr = state.fp_regs

    # Inlined dict-LRU caches (must mirror Cache.access exactly).
    ic = machine.icache
    dc = machine.dcache
    isets = ic._sets  # noqa: SLF001
    dsets = dc._sets  # noqa: SLF001
    insets = ic.config.num_sets
    dnsets = dc.config.num_sets
    ishift = machine.config.icache.block_shift
    dshift = dc.config.block_shift
    iassoc = ic.config.assoc
    dassoc = dc.config.assoc
    itick = ic._tick  # noqa: SLF001
    dtick = dc._tick  # noqa: SLF001
    ihits = imiss = dhits = dmiss = 0

    start_cycle = state.now
    if state.halted:
        return RunResult("halt", start_cycle, start_cycle, 0)

    # Per-run scheduling structures (the pipeline starts drained).
    base = state.now
    penalty = core.stall_cycles
    bus_free = 0
    dis_w = params.dispatch_width
    iss_w = params.issue_width
    com_w = params.commit_width
    port_w = params.cache_ports
    dis_used: dict[int, int] = {}
    iss_used: dict[int, int] = {}
    port_used: dict[int, int] = {}
    dis_get = dis_used.get
    iss_get = iss_used.get
    port_get = port_used.get
    rob_n = params.rob_entries
    iq_n = params.iq_entries
    lsq_n = params.lsq_entries
    # Occupancy rings (see module docstring).
    robq = [-1] * rob_n
    iqq = [-1] * iq_n
    lsqq = [-1] * lsq_n
    ri = qi = li = 0
    ready = [0] * 64
    # Commit frontier pair: last_commit + slots used at that cycle.
    last_commit = 0
    ccn = 0
    inflight_stores: dict[int, tuple[int, int]] = {}  # addr -> (comp, commit)
    get_inflight = inflight_stores.get

    # Fetch-group state (relative cycles).
    fetch_width = params.fetch_width
    fetch_cycle = 0
    group_done = 0
    group_count = 0
    group_block = -1
    redirect = 0
    executed = 0
    pruned_at = 0
    i2e = params.issue_to_ex

    # Batched event counters, flushed when the segment ends.
    c_group = 0
    c_bpred = 0
    c_regread = 0
    c_regwrite = 0
    c_dcache = 0
    n_mem = 0

    masked = mmio.exceptions_masked
    wd_enabled = mmio._wd_enabled  # noqa: SLF001
    wd_expiry = mmio._wd_expiry  # noqa: SLF001

    pc = state.pc
    committed_now = state.now
    limit = -1 if max_instructions is None else max_instructions

    try:
        while True:
            if executed == limit:
                return RunResult("limit", start_cycle, committed_now, executed)

            i = pc - tbase
            if i < 0 or i >= tlen or i & 3:
                raise ReproError(f"no instruction at {pc:#x}")
            (
                kind, ex, src_keys, dkey, wbank, dnum, nsrc, lat,
                npc, starget, ptaken, inst,
            ) = fast[i >> 2]

            # ---- fetch group formation (inlined I-cache + bus) ----
            blk = pc >> ishift
            if (
                group_count >= fetch_width
                or blk != group_block
                or fetch_cycle < redirect
            ):
                fetch_cycle += 1
                if redirect > fetch_cycle:
                    fetch_cycle = redirect
                group_count = 0
                group_block = blk
                c_group += 1
                way = isets[blk % insets]
                if blk in way:
                    way[blk] = itick
                    itick += 1
                    ihits += 1
                    group_done = fetch_cycle
                else:
                    way[blk] = itick
                    itick += 1
                    if len(way) > iassoc:
                        del way[min(way, key=way.__getitem__)]
                    imiss += 1
                    t = fetch_cycle
                    if bus_free > t:
                        t = bus_free
                    group_done = bus_free = t + penalty
                    fetch_cycle = group_done  # fetch resumes after the fill
            group_count += 1
            fetch_time = group_done

            # ---- architectural execute + branch prediction ----
            mispredicted = False
            taken_control = False  # predicted-taken control flow
            if kind == 0:  # K_ALU
                value = ex(ir, fr)
            elif kind == 1:  # K_LOAD
                addr = ex(ir)
            elif kind == 2:  # K_STORE
                addr, store_value = ex(ir, fr)
            elif kind == 3:  # K_BRANCH
                taken = ex(ir)
                c_bpred += 1
                gi = ((pc >> 2) ^ gh) & 65535
                gv = gt[gi]
                mispredicted = (gv >= 2) != taken
                taken_control = gv >= 2
                if taken:
                    if gv < 3:
                        gt[gi] = gv + 1
                    gh = ((gh << 1) | 1) & 65535
                else:
                    if gv:
                        gt[gi] = gv - 1
                    gh = (gh << 1) & 65535
            elif kind == 4:  # K_JUMP
                taken_control = True
            elif kind == 5:  # K_INDIRECT
                target = ex(ir)
                c_bpred += 1
                ii = ((pc >> 2) ^ ih) & 65535
                mispredicted = it_get(ii) != target
                taken_control = True
                it[ii] = target
                ih = ((ih << 1) | 1) & 65535
            # K_HALT (6): nothing to execute.

            # ---- dispatch (rename, allocate ROB/IQ/LSQ rings) ----
            dispatch = fetch_time + 1
            t = robq[ri]
            if t >= dispatch:
                dispatch = t + 1
            t = iqq[qi]
            if t >= dispatch:
                dispatch = t + 1
            is_mem = kind == 1 or kind == 2
            if is_mem:
                n_mem += 1
                t = lsqq[li]
                if t >= dispatch:
                    dispatch = t + 1
            while dis_get(dispatch, 0) >= dis_w:
                dispatch += 1
            dis_used[dispatch] = dis_get(dispatch, 0) + 1

            # ---- issue (wakeup/select) ----
            issue = dispatch + 1
            for sk in src_keys:
                t = ready[sk]
                if t > issue:
                    issue = t
            if is_mem:
                # Find a cycle with both an issue slot and a cache port,
                # then claim both.
                while True:
                    while iss_get(issue, 0) >= iss_w:
                        issue += 1
                    ported = issue
                    while port_get(ported, 0) >= port_w:
                        ported += 1
                    if ported == issue:
                        break
                    issue = ported
                port_used[issue] = port_get(issue, 0) + 1
            else:
                while iss_get(issue, 0) >= iss_w:
                    issue += 1
            iss_used[issue] = iss_get(issue, 0) + 1
            c_regread += nsrc

            ex_start = issue + i2e

            # ---- execute / memory ----
            if kind == 1:  # load
                if addr >= _MMIO_BASE:
                    mmio_load = True
                    comp = ex_start + 1
                else:
                    mmio_load = False
                    entry = get_inflight(addr)
                    forwarded = entry is not None and entry[1] > ex_start
                    c_dcache += 1
                    blk = addr >> dshift
                    way = dsets[blk % dnsets]
                    if blk in way:
                        way[blk] = dtick
                        dtick += 1
                        dhits += 1
                        hit = True
                    else:
                        way[blk] = dtick
                        dtick += 1
                        if len(way) > dassoc:
                            del way[min(way, key=way.__getitem__)]
                        dmiss += 1
                        hit = False
                    if forwarded:
                        # Older store still in the LSQ: forward its data.
                        comp = entry[0] + 1  # type: ignore[index]
                        t = ex_start + 1
                        if t > comp:
                            comp = t
                    elif hit:
                        comp = ex_start + 2
                    else:
                        t = ex_start + 1
                        if bus_free > t:
                            t = bus_free
                        bus_free = t + penalty
                        comp = bus_free + 1
            elif kind == 2:  # store
                comp = ex_start + 1  # AGEN; the cache write happens at commit
            else:
                comp = ex_start + lat

            if mispredicted:
                redirect = comp + 1
                fetch_cycle = redirect - 1  # next group forms at redirect
                group_count = fetch_width  # force a new group
            elif taken_control:
                group_count = fetch_width  # taken flow breaks the group

            # ---- commit (in order, 4-wide; frontier pair) ----
            commit = comp + 1
            if commit <= last_commit:
                # At or behind the frontier: a free slot there absorbs
                # it, else the frontier advances one cycle.
                if ccn < com_w:
                    ccn += 1
                    commit = last_commit
                else:
                    last_commit += 1
                    ccn = 1
                    commit = last_commit
            else:
                last_commit = commit
                ccn = 1
            robq[ri] = commit
            ri += 1
            if ri == rob_n:
                ri = 0
            if is_mem:
                lsqq[li] = commit
                li += 1
                if li == lsq_n:
                    li = 0
            iqq[qi] = issue
            qi += 1
            if qi == iq_n:
                qi = 0

            # ---- architectural side effects ----
            now_abs = base + commit
            if kind == 0:
                if wbank == 1:
                    ir[dnum] = value
                elif wbank == 2:
                    fr[dnum] = value
                pc = npc
            elif kind == 1:
                if mmio_load:
                    value = mmio.read(addr, base + ex_start + 1)
                else:
                    if addr & 3 or tbase <= addr < tbase + tlen:
                        machine.data_read(addr, now_abs)  # raises precisely
                    value = words.get(addr, 0)
                if wbank == 1:
                    ir[dnum] = value
                elif wbank == 2:
                    fr[dnum] = value
                pc = npc
            elif kind == 2:
                if addr >= _MMIO_BASE:
                    mmio.write(addr, store_value, now_abs)
                    masked = mmio.exceptions_masked
                    wd_enabled = mmio._wd_enabled  # noqa: SLF001
                    wd_expiry = mmio._wd_expiry  # noqa: SLF001
                else:
                    if addr & 3 or tbase <= addr < tbase + tlen:
                        machine.data_write(addr, store_value, now_abs)
                    if store_value.__class__ is int:
                        words[addr] = (
                            (store_value + 0x80000000) & 0xFFFFFFFF
                        ) - 0x80000000
                    else:
                        words[addr] = store_value
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
                        # Write-allocate fill occupies the bus.
                        t = commit
                        if bus_free > t:
                            t = bus_free
                        bus_free = t + penalty
                    inflight_stores[addr] = (comp, commit)
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

            if dkey >= 0:
                c_regwrite += 1
                # Dependents may issue once the producer's result is on
                # the bypass network: issue >= comp - issue_to_ex ensures
                # their execute starts at comp.
                ready[dkey] = comp - i2e

            committed_now = base + last_commit
            executed += 1

            if kind == 6:
                state.halted = True
                return RunResult("halt", start_cycle, committed_now, executed)

            if (
                honor_watchdog
                and not masked
                and wd_enabled
                and committed_now >= wd_expiry
            ):
                return RunResult(
                    "watchdog",
                    start_cycle,
                    committed_now,
                    executed,
                    exception_cycle=min(committed_now, wd_expiry),
                )

            if executed - pruned_at >= _PRUNE_STRIDE:
                # Width-map hygiene: dispatch probes start at
                # max(group_done, oldest live ROB commit) + 1 (both
                # monotone; the ROB clamp applies forever once full),
                # issue/port probes one cycle later still, so keys below
                # those floors are dead and safe to drop.
                pruned_at = executed
                t = robq[ri]
                floor = group_done if group_done > t else t
                floor += 1
                if len(dis_used) > _PRUNE_MIN:
                    keep = {k: v for k, v in dis_used.items() if k >= floor}
                    dis_used.clear()
                    dis_used.update(keep)
                floor += 1
                for used in (iss_used, port_used):
                    if len(used) > _PRUNE_MIN:
                        keep = {k: v for k, v in used.items() if k >= floor}
                        used.clear()
                        used.update(keep)

            if executed > 200_000_000:  # pragma: no cover - runaway guard
                raise SimulationError("instruction budget exceeded (runaway?)")
    finally:
        # Flush batched state back so every exit (return *or* raise)
        # leaves the core observationally identical to run_reference.
        gshare.history = gh
        indirect.history = ih
        state.pc = pc
        state.now = committed_now
        state.instret += executed
        ic._tick = itick  # noqa: SLF001
        dc._tick = dtick  # noqa: SLF001
        ics = ic.stats
        ics.hits += ihits
        ics.misses += imiss
        dcs = dc.stats
        dcs.hits += dhits
        dcs.misses += dmiss
        counters = state.counters
        if executed:
            counters["rename"] += executed
            counters["rob_write"] += executed
            counters["iq"] += executed
            counters["regread"] += c_regread
            counters["fu"] += executed
            counters["commit"] += executed
        if c_group:
            counters["icache"] += c_group
            counters["fetch"] += c_group
        if c_bpred:
            counters["bpred"] += c_bpred
        if n_mem:
            counters["lsq"] += n_mem
        if c_dcache:
            counters["dcache"] += c_dcache
        if c_regwrite:
            counters["regwrite"] += c_regwrite


__all__ = ["run_interp_event"]

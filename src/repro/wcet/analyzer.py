"""Static WCET analysis driver (paper §3.3).

Processes the timing-analysis tree bottom-up: innermost loops first (via a
fix-point over per-iteration path timing), then outer loops and functions
(analysis-time inlining of calls), and finally the sub-task regions of
``main()``, whose boundaries come from the ``.subtask`` markers.

The output is one WCET per sub-task, split the way the paper's EQ 1 / EQ 4
need it: pipeline cycles at a given frequency's memory stall time, plus a
worst-case D-cache miss bound that is padded on top (§3.3: the D-cache
module is substituted by trace-derived padding).

Safety argument (tested, not assumed):

* the pipeline recurrence is shared with the dynamic simulator: a pass
  runs its block form (``inorder_engine.advance_block``), which a parity
  test pins to the per-instruction ``advance`` the simulator runs,
* joins merge states by component-wise max (monotone recurrence),
* loop iterations are replicated only after the per-iteration cost reaches
  a fix-point,
* sub-task boundaries assume a full pipeline drain (no overlap across
  scopes), which only over-approximates,
* every I-cache reference is a miss unless persistence proves otherwise;
  persistent blocks are charged one miss at the entry of the outermost
  scope where they persist.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import AnalysisError
from repro.isa.program import Program
from repro.memory.cache import CacheConfig
from repro.memory.machine import WORST_CASE_MEM_STALL_NS, mem_stall_cycles
from repro.pipelines.inorder_engine import BlockInst, advance_block, block_insts
from repro.wcet.cfg import BasicBlock, FunctionCFG, build_cfg
from repro.wcet.icache_static import ScopeCacheInfo, scope_info
from repro.wcet.loops import Loop, find_loops
from repro.wcet.pipeline_model import PathState, edge_penalty, merge

#: Analysis passes (``run_cls(...).region_cycles()``, one per analyzer and
#: memory-stall count) since process start or the caller's last
#: ``STATS.clear()``.  Tests use it to verify that the shared analysis
#: behind :meth:`repro.visa.spec.VISASpec.wcet` really skips re-solves.
STATS = Counter()


@dataclass
class SubtaskWCET:
    """Worst-case execution time of one sub-task at one frequency.

    Attributes:
        index: Sub-task index.
        cycles: Pipeline WCET cycles (I-cache effects included).
        dmiss_bound: Worst-case number of D-cache misses (padding).
        stall: Memory stall time in cycles at the analyzed frequency.
    """

    index: int
    cycles: int
    stall: int
    dmiss_bound: int = 0

    @property
    def total_cycles(self) -> int:
        """Padded WCET in cycles (paper's per-sub-task WCET)."""
        return self.cycles + self.dmiss_bound * self.stall


@dataclass
class TaskWCET:
    """Per-sub-task WCETs of a whole task at one frequency."""

    freq_hz: float
    stall: int
    subtasks: list[SubtaskWCET] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(s.total_cycles for s in self.subtasks)

    @property
    def total_seconds(self) -> float:
        return self.total_cycles / self.freq_hz

    def subtask_seconds(self, index: int) -> float:
        return self.subtasks[index].total_cycles / self.freq_hz

    def tail_seconds(self, first: int) -> float:
        """Sum of WCETs of sub-tasks ``first`` .. end (EQ 1's summation)."""
        return sum(self.subtask_seconds(k) for k in range(first, len(self.subtasks)))


#: One scope-DAG node: ("block", address) or ("loop", header address).
Node = tuple[str, int]


class ScopePlan(NamedTuple):
    """Stall-independent shape of one scope's DAG.

    Attributes:
        node_of: Member block address -> its node (a block of a nested
            loop maps to that loop's node).
        loops_by_header: The scope's top-level loops.  Their ``bound`` is
            read at walk time, never copied, so a caller's mutation of a
            ``Loop`` still takes effect.
        order: Nodes reachable from the scope entry, in topological order
            (back and exit edges ignored).
    """

    node_of: dict[int, Node]
    loops_by_header: dict[int, Loop]
    order: list[Node]


class BlockPlan(NamedTuple):
    """Stall-independent operands of one basic block for ``advance_block``.

    Attributes:
        insts: All instructions.
        body: All but the last instruction.
        last: The last instruction alone (run once per out-edge).
        edges: (target, control penalty) per out-edge, in CFG order.
    """

    insts: tuple[BlockInst, ...]
    body: tuple[BlockInst, ...]
    last: tuple[BlockInst, ...]
    edges: tuple[tuple[int | None, bool], ...]


class WCETAnalyzer:
    """Static worst-case timing analyzer for one program."""

    #: Analysis-pass class instantiated per memory-stall count.  The
    #: seeded-defect corpus (tests/test_wcet_oracle_defects.py) swaps in
    #: deliberately broken subclasses of ``_Run``; production code never
    #: overrides this.
    run_cls: "type[_Run]"

    def __init__(
        self,
        program: Program,
        cache_config: CacheConfig | None = None,
        mem_stall_ns: float = WORST_CASE_MEM_STALL_NS,
        fixpoint_cap: int = 16,
    ):
        self.program = program
        self.cache_config = cache_config or CacheConfig()
        self.mem_stall_ns = mem_stall_ns
        self.fixpoint_cap = fixpoint_cap
        self.cfg = build_cfg(program)
        self.loops = {
            entry: find_loops(fcfg, program)
            for entry, fcfg in self.cfg.functions.items()
        }
        #: Optional per-sub-task worst-case D-cache miss counts
        #: (see :mod:`repro.wcet.dcache_pad`); applied to every analysis.
        self.dcache_bounds: list[int] | None = None
        self._regions = self._build_regions()
        self._func_addrs_cache: dict[int, frozenset[int]] = {}
        self._scope_info_cache: dict[object, ScopeCacheInfo] = {}
        self._scope_plans: dict[tuple[int, int, int | None], ScopePlan] = {}
        self._block_plans: dict[tuple[int, int], BlockPlan] = {}
        self._result_cache: dict[int, list[int]] = {}

    # -- public API -------------------------------------------------------------

    def analyze(self, freq_hz: float = 1e9) -> TaskWCET:
        """Compute per-sub-task WCETs at ``freq_hz``.

        Results are cached per distinct memory-stall cycle count, so
        sweeping the 37-point DVS table costs at most 37 analysis runs.
        """
        stall = mem_stall_cycles(freq_hz, self.mem_stall_ns)
        if stall not in self._result_cache:
            STATS["passes"] += 1
            self._result_cache[stall] = self.run_cls(self, stall).region_cycles()
        cycles = self._result_cache[stall]
        task = TaskWCET(freq_hz=freq_hz, stall=stall)
        for index, c in enumerate(cycles):
            dmiss = 0
            if self.dcache_bounds is not None:
                dmiss = self.dcache_bounds[index]
            task.subtasks.append(
                SubtaskWCET(index=index, cycles=c, stall=stall, dmiss_bound=dmiss)
            )
        return task

    @property
    def num_subtasks(self) -> int:
        return len(self._regions)

    @property
    def regions(self) -> list[dict]:
        """Sub-task regions of ``main()`` (index/entry/blocks/loops/next).

        Public so alternative engines — the model-checking oracle in
        :mod:`repro.wcet.mc` — analyze exactly the same partitioning.
        """
        return self._regions

    # -- region (sub-task) structure ----------------------------------------------

    def _build_regions(self) -> list[dict]:
        """Partition main() into sub-task regions by the .subtask marks."""
        main = self.cfg.entry_function
        marks = self.program.subtask_boundaries()
        if not marks:
            starts = [main.entry]
        else:
            starts = [main.entry] + marks[1:]
        bounds = starts[1:] + [1 << 62]
        regions = []
        for k, (lo, hi) in enumerate(zip(starts, bounds)):
            blocks = {a for a in main.blocks if lo <= a < hi}
            if not blocks:
                raise AnalysisError(f"sub-task region {k} is empty")
            next_entry = bounds[k] if k < len(starts) - 1 else None
            for addr in blocks:
                for _kind, succ in main.blocks[addr].successors:
                    if succ is None:
                        continue
                    if succ not in blocks and succ != next_entry:
                        raise AnalysisError(
                            f"control flow crosses sub-task boundary: "
                            f"{addr:#x} -> {succ:#x}"
                        )
            forest = self.loops[main.entry]
            loops = [
                loop
                for loop in forest.roots
                if loop.header in blocks
            ]
            for loop in loops:
                if not loop.blocks <= blocks:
                    raise AnalysisError(
                        f"loop at {loop.header:#x} spans sub-task regions"
                    )
            regions.append(
                {
                    "index": k,
                    "entry": starts[k],
                    "blocks": blocks,
                    "loops": loops,
                    "next": next_entry,
                }
            )
        return regions

    # -- instruction-address closures (for cache scopes) ----------------------------

    def func_addr_closure(self, entry: int) -> frozenset[int]:
        """Instruction addresses of a function plus transitive callees."""
        cached = self._func_addrs_cache.get(entry)
        if cached is not None:
            return cached
        fcfg = self.cfg.functions[entry]
        addrs: set[int] = set()
        for block in fcfg.blocks.values():
            for inst in block.instructions:
                addrs.add(inst.addr)
        self._func_addrs_cache[entry] = frozenset(addrs)  # break cycles safely
        for callee in self.cfg.call_graph[entry]:
            addrs |= self.func_addr_closure(callee)
        result = frozenset(addrs)
        self._func_addrs_cache[entry] = result
        return result

    def blocks_addr_closure(self, fcfg: FunctionCFG, blocks: set[int]) -> set[int]:
        """Instruction addresses of ``blocks`` plus callees they invoke."""
        addrs: set[int] = set()
        for addr in blocks:
            block = fcfg.blocks[addr]
            for inst in block.instructions:
                addrs.add(inst.addr)
            if block.call_target is not None:
                addrs |= self.func_addr_closure(block.call_target)
        return addrs

    def scope_cache_info(self, key, fcfg: FunctionCFG, blocks: set[int]) -> ScopeCacheInfo:
        if key not in self._scope_info_cache:
            addrs = self.blocks_addr_closure(fcfg, blocks)
            self._scope_info_cache[key] = scope_info(addrs, self.cache_config)
        return self._scope_info_cache[key]

    # -- stall-independent walk plans -----------------------------------------------

    def scope_plan(
        self,
        fcfg: FunctionCFG,
        members: set[int],
        level_loops: list[Loop],
        entry: int,
        backedge_header: int | None,
    ) -> ScopePlan:
        """The DAG of one scope, built on first use and then cached.

        A scope is a sub-task region of ``main()``, a whole function, or
        one loop body (``backedge_header`` is then the loop header); it is
        identified by (function entry, scope entry, back-edge header).
        (Region 0 and ``main()`` as a function cannot collide: the call
        graph is acyclic, so nothing calls ``main()``.)  Shared by the
        static passes and the model-checking engine, so both walk exactly
        the same DAG.
        """
        key = (fcfg.entry, entry, backedge_header)
        plan = self._scope_plans.get(key)
        if plan is None:
            node_of: dict[int, Node] = {}
            for loop in level_loops:
                for addr in loop.blocks:
                    node_of[addr] = ("loop", loop.header)
            for addr in members:
                node_of.setdefault(addr, ("block", addr))
            plan = self._scope_plans[key] = ScopePlan(
                node_of,
                {loop.header: loop for loop in level_loops},
                scope_topo_order(fcfg, node_of, entry, backedge_header),
            )
        return plan

    def block_plan(self, fentry: int, block: BasicBlock) -> BlockPlan:
        """The ``advance_block`` operands of ``block`` (cached)."""
        key = (fentry, block.start)
        plan = self._block_plans.get(key)
        if plan is None:
            insts = block_insts(
                block.instructions, self.cache_config.block_shift
            )
            last = block.instructions[-1]
            plan = self._block_plans[key] = BlockPlan(
                insts,
                insts[:-1],
                insts[-1:],
                tuple(
                    (target, edge_penalty(last, kind))
                    for kind, target in block.successors
                ),
            )
        return plan


def scope_topo_order(
    fcfg: FunctionCFG,
    node_of: dict[int, object],
    entry: int,
    backedge_header: int | None,
) -> list[object]:
    """Topological order of scope nodes (back/exit edges ignored).

    Nodes are ``("block", addr)`` or ``("loop", header)`` as mapped by
    ``node_of``.  Run once per scope by :meth:`WCETAnalyzer.scope_plan`.
    """

    blocks_of: dict[object, set[int]] = {}
    for a, n in node_of.items():
        blocks_of.setdefault(n, set()).add(a)

    def successors(node) -> set[object]:
        kind, addr = node
        if kind == "loop":
            # exits of the loop: edges from its blocks leaving the loop
            loop_blocks = blocks_of[node]
            out: set[object] = set()
            for a in loop_blocks:
                for _k, succ in fcfg.blocks[a].successors:
                    if (
                        succ is not None
                        and succ not in loop_blocks
                        and succ != backedge_header
                        and succ in node_of
                    ):
                        out.add(node_of[succ])
            return out
        out = set()
        for _k, succ in fcfg.blocks[addr].successors:
            if (
                succ is not None
                and succ != backedge_header
                and succ in node_of
            ):
                target = node_of[succ]
                if target != node:
                    out.add(target)
        return out

    start = node_of[entry]
    seen: set[object] = set()
    post: list[object] = []

    def dfs(node) -> None:
        stack = [(node, iter(sorted(successors(node))))]
        seen.add(node)
        while stack:
            current, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(sorted(successors(nxt)))))
                    advanced = True
                    break
            if not advanced:
                post.append(current)
                stack.pop()

    dfs(start)
    return list(reversed(post))


class _Run:
    """One analysis pass at a fixed memory-stall cycle count.

    The ``_fm_charge`` / ``_finish`` hooks isolate the two numeric
    decisions the pass makes beyond the shared recurrence — the
    first-miss charge at scope entry and the drained-pipeline frontier at
    region exit.  The seeded-unsoundness corpus subclasses them to build
    deliberately broken analyzers the differential oracle must catch.
    """

    def __init__(self, analyzer: WCETAnalyzer, stall: int):
        self.a = analyzer
        self.stall = stall

    def _fm_charge(self, count: int) -> int:
        """Cycles charged for ``count`` first-miss blocks at scope entry."""
        return self.stall * count

    def _finish(self, state: PathState) -> int:
        """Region WCET from its merged exit state (full pipeline drain)."""
        return state.frontier

    def region_cycles(self) -> list[int]:
        main = self.a.cfg.entry_function
        cycles: list[int] = []
        for region in self.a._regions:
            info = self.a.scope_cache_info(
                ("region", region["index"]), main, region["blocks"]
            )
            state = PathState.fresh().shift(self._fm_charge(len(info.persistent)))
            covered = set(info.persistent)
            back, externals = self._walk(
                main,
                region["blocks"],
                region["loops"],
                region["entry"],
                state,
                covered,
                backedge_header=None,
            )
            assert back is None
            final: PathState | None = None
            for target, st in externals.items():
                if target is not None and target != region["next"]:
                    raise AnalysisError(
                        f"region {region['index']} exits to unexpected "
                        f"{target:#x}"
                    )
                final = merge(final, st)
            if final is None:
                raise AnalysisError(f"region {region['index']} has no exit")
            cycles.append(self._finish(final))
        return cycles

    # -- scope walking -----------------------------------------------------------

    def _walk(
        self,
        fcfg: FunctionCFG,
        members: set[int],
        level_loops: list[Loop],
        entry: int,
        state: PathState,
        covered: set[int],
        backedge_header: int | None,
    ) -> tuple[PathState | None, dict[int | None, PathState]]:
        """Propagate pipeline states through one scope's DAG.

        Returns (merged back-edge state or None, external exits keyed by
        target address — None for function returns / halt).
        """
        plan = self.a.scope_plan(
            fcfg, members, level_loops, entry, backedge_header
        )
        node_of = plan.node_of
        in_states: dict[Node, PathState] = {node_of[entry]: state}
        back_state: PathState | None = None
        externals: dict[int | None, PathState] = {}

        # Every state delivered here is owned by this walk (entry state,
        # per-edge outputs of _block and _loop), so the first arrival at a
        # node, the back edge or an exit is handed over without a copy.
        def deliver(target: int | None, st: PathState) -> None:
            nonlocal back_state
            if target is not None and target == backedge_header:
                back_state = _join(back_state, st)
            elif target is None or target not in node_of:
                externals[target] = _join(externals.get(target), st)
            else:
                node = node_of[target]
                in_states[node] = _join(in_states.get(node), st)

        for node in plan.order:
            st = in_states.pop(node, None)
            if st is None:
                continue
            kind, addr = node
            if kind == "loop":
                for target, out in self._loop(
                    fcfg, plan.loops_by_header[addr], st, covered
                ).items():
                    deliver(target, out)
            else:
                for target, out in self._block(fcfg, fcfg.blocks[addr], st, covered):
                    deliver(target, out)
        return back_state, externals

    def _block(
        self,
        fcfg: FunctionCFG,
        block: BasicBlock,
        state: PathState,
        covered: set[int],
    ) -> list[tuple[int | None, PathState]]:
        """Walk one basic block; returns per-edge (target, state) pairs."""
        plan = self.a.block_plan(fcfg.entry, block)
        stall = self.stall
        if block.call_target is not None:
            state.cache_block = advance_block(
                state.timing, plan.insts, state.cache_block, covered, stall,
                False,
            )
            state = self._function(block.call_target, state, covered)
            return [(plan.edges[0][0], state)]
        if len(plan.edges) == 1:
            target, penalty = plan.edges[0]
            state.cache_block = advance_block(
                state.timing, plan.insts, state.cache_block, covered, stall,
                penalty,
            )
            return [(target, state)]
        state.cache_block = advance_block(
            state.timing, plan.body, state.cache_block, covered, stall, False
        )
        results = []
        for i, (target, penalty) in enumerate(plan.edges):
            # The last edge takes the walked state itself, the others a copy.
            out = state if i == len(plan.edges) - 1 else state.clone()
            out.cache_block = advance_block(
                out.timing, plan.last, out.cache_block, covered, stall,
                penalty,
            )
            results.append((target, out))
        return results

    def _function(
        self, entry: int, state: PathState, covered: set[int]
    ) -> PathState:
        """Analysis-time inlining: thread the state through the callee."""
        fcfg = self.a.cfg.functions[entry]
        forest = self.a.loops[entry]
        back, externals = self._walk(
            fcfg,
            set(fcfg.blocks),
            forest.roots,
            entry,
            state,
            covered,
            backedge_header=None,
        )
        assert back is None
        result: PathState | None = None
        for target, st in externals.items():
            if target is not None:
                raise AnalysisError(
                    f"function {entry:#x} escapes to {target:#x}"
                )
            result = merge(result, st)
        if result is None:
            raise AnalysisError(f"function {entry:#x} never returns")
        return result

    def _loop(
        self,
        fcfg: FunctionCFG,
        loop: Loop,
        state: PathState,
        covered: set[int],
    ) -> dict[int | None, PathState]:
        """Fix-point loop timing (paper §3.3).

        Iterates the loop body with the threaded pipeline state until the
        per-iteration cost stabilizes, replicates the remaining iterations
        at the fixed cost, then runs the exit paths.
        """
        info = self.a.scope_cache_info(("loop", loop.header), fcfg, loop.blocks)
        fresh = info.persistent - covered
        state = state.shift(self._fm_charge(len(fresh)))
        inner_covered = covered | fresh

        current = state
        costs: list[int] = []
        done = 0
        converged = False
        while done < loop.bound:
            back, _ = self._walk(
                fcfg,
                loop.blocks,
                loop.children,
                loop.header,
                current.clone(),
                inner_covered,
                backedge_header=loop.header,
            )
            if back is None:
                break  # body always leaves the loop
            costs.append(back.frontier - current.frontier)
            current = back
            done += 1
            if len(costs) >= 2 and costs[-1] == costs[-2]:
                converged = True
                break
            if done >= self.a.fixpoint_cap:
                break
        if done < loop.bound and done > 0:
            per_iter = costs[-1] if converged else max(costs)
            current = current.shift(per_iter * (loop.bound - done))
        _, externals = self._walk(
            fcfg,
            loop.blocks,
            loop.children,
            loop.header,
            current,
            inner_covered,
            backedge_header=loop.header,
        )
        if not externals:
            raise AnalysisError(f"loop at {loop.header:#x} has no exit")
        return externals


def _join(held: PathState | None, st: PathState) -> PathState:
    """Join ``st`` into ``held``, adopting ``st`` itself if it is first."""
    return st if held is None else merge(held, st)


WCETAnalyzer.run_cls = _Run

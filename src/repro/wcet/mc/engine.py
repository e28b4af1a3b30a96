"""Bounded model-checking WCET engine (differential soundness oracle).

Exhaustively explores the reachable ``ProgramCFG`` × pipeline-recurrence
state space — the technique of Becker et al. (arXiv 1802.09239) and
Béchennec/Cassez (arXiv 1105.1633), specialized to the VISA pipeline:

* **per-path timing**: every explored path threads the *same* in-order
  recurrence as the dynamic simulator and the static analyzer, one basic
  block per call (:func:`repro.pipelines.inorder_engine.advance_block`
  over the analyzer's cached block plans), so the three can only differ
  in their inputs, never their pipeline model;
* **exact I-cache**: true LRU contents per path
  (:mod:`repro.wcet.mc.icache`) instead of persistence classification;
  the cache's ``access`` decides each miss the block recurrence asks
  about, which gives the same outcomes and contents as one access per
  instruction (the argument is at ``advance_block``);
* **exact loop unrolling**: loops run iteration by iteration up to their
  declared ``.loopbound`` (the same trusted annotation the static
  analyzer replicates against);
* **value-based pruning**: a concrete partial store
  (:mod:`repro.wcet.mc.values`) decides input-independent branches
  exactly, so infeasible paths are never enumerated, and the
  visalint-powered branch-relevance slice (:mod:`repro.wcet.mc.slicing`)
  keys state subsumption so paths differing only in dead values merge.
  The key is cheap to build at every edge: the cache keeps its
  order-free part as one frozenset grown at misses, and each block's
  slice is split once, at construction, into sorted register numbers.

Soundness of the produced bound (``mc >= observed`` on the simple
pipeline) rests on four arguments, each exercised by the test suite:

1. the recurrence is shared and monotone, and states are only ever
   *merged upward* (component-wise max) or split exactly;
2. unknown values strictly widen behaviour (both branch edges explored,
   loops run to their declared bound);
3. each sub-task region starts from a drained pipeline, which pointwise
   dominates any carried-over state (every rebased component of a live
   state is below the fresh state's origin);
4. D-cache misses are padded on top exactly like the static analyzer
   (the recurrence runs with D-hits; each real miss can delay the
   drained frontier by at most the stall it adds — the recurrence is
   1-Lipschitz in its memory-latency input).

Because the static analyzer over-approximates *per region* and this
engine is exact per region, ``static >= mc`` is the expected relation;
``repro wcet diff`` treats any violation as a soundness bug in the
shipped analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.memory.machine import mem_stall_cycles
from repro.pipelines.inorder_engine import (
    BlockInst,
    TimingState,
    advance_block,
)
from repro.wcet.analyzer import Node, SubtaskWCET, TaskWCET, WCETAnalyzer
from repro.wcet.cfg import BasicBlock, FunctionCFG
from repro.wcet.loops import Loop
from repro.wcet.mc.icache import ExactICache, ICacheDigest, orderfree_sets
from repro.wcet.mc.slicing import program_relevance
from repro.wcet.mc.values import (
    RegisterSlice,
    ValueDigest,
    ValueStore,
    register_slice,
)
from repro.wcet.pipeline_model import merge_timing

#: Subsumption key: branch-relevant values + canonical cache contents.
DigestKey = tuple[ValueDigest, ICacheDigest]

#: A set of explored states at one program point, merged by digest.
Bucket = dict[DigestKey, "MCState"]


class MCState:
    """One explored pipeline/value/cache state."""

    __slots__ = ("timing", "values", "icache")

    def __init__(
        self, timing: TimingState, values: ValueStore, icache: ExactICache
    ) -> None:
        self.timing = timing
        self.values = values
        self.icache = icache

    def clone(self) -> "MCState":
        return MCState(
            self.timing.clone(), self.values.clone(), self.icache.clone()
        )

    @property
    def frontier(self) -> int:
        """Completion time of everything issued (drained pipeline)."""
        return self.timing.mem_free + 1


@dataclass
class MCStats:
    """Exploration counters (observability for bench/docs)."""

    steps: int = 0
    merges: int = 0
    value_collapses: int = 0
    widenings: int = 0
    bound_exhausted: int = 0


class ModelCheckEngine:
    """Exact per-sub-task WCET by bounded state-space exploration.

    Drop-in alternative to :class:`repro.wcet.analyzer.WCETAnalyzer`:
    ``analyze`` returns the same :class:`TaskWCET` shape, computed over
    the same region partitioning, loop forest, and D-miss padding, so
    the two engines differ *only* in how they bound pipeline cycles.

    Args:
        analyzer: Supplies program structure (CFG, loops, regions) and
            the ``dcache_bounds`` padding; its timing results are not
            consulted.
        state_cap: Maximum distinct states kept per program point before
            the set is widened into one conservative state (sound; only
            precision is lost).  The C-lab workloads stay far below it.
    """

    def __init__(self, analyzer: WCETAnalyzer, state_cap: int = 64) -> None:
        self.a = analyzer
        self.config = analyzer.cache_config
        self.state_cap = state_cap
        self.relevance: dict[tuple[int, int], RegisterSlice] = {
            key: register_slice(relevant)
            for key, relevant in program_relevance(analyzer.cfg).items()
        }
        self.orderfree = orderfree_sets(
            (inst.addr for inst in analyzer.program.instructions
             if inst.addr is not None),
            self.config,
        )
        self.stats = MCStats()
        self._result_cache: dict[int, list[int]] = {}

    # -- public API -------------------------------------------------------------

    def analyze(self, freq_hz: float = 1e9) -> TaskWCET:
        """Exact per-sub-task WCETs at ``freq_hz`` (cached per stall)."""
        stall = mem_stall_cycles(freq_hz, self.a.mem_stall_ns)
        if stall not in self._result_cache:
            self._result_cache[stall] = self._region_cycles(stall)
        cycles = self._result_cache[stall]
        task = TaskWCET(freq_hz=freq_hz, stall=stall)
        bounds = self.a.dcache_bounds
        for index, c in enumerate(cycles):
            dmiss = 0 if bounds is None else bounds[index]
            task.subtasks.append(
                SubtaskWCET(index=index, cycles=c, stall=stall,
                            dmiss_bound=dmiss)
            )
        return task

    # -- region driver -----------------------------------------------------------

    def _region_cycles(self, stall: int) -> list[int]:
        main = self.a.cfg.entry_function
        # Values and exact cache contents carry across region boundaries
        # (the hardware's do); timing restarts from a drained pipeline,
        # which dominates any carried-over recurrence state.
        carried = [
            MCState(TimingState(), ValueStore.initial(),
                    ExactICache(self.config, self.orderfree))
        ]
        cycles: list[int] = []
        for region in self.a.regions:
            seeds = [
                MCState(TimingState(), st.values, st.icache) for st in carried
            ]
            back, externals = self._walk(
                main.entry, main, region["blocks"], region["loops"],
                region["entry"], seeds, None, stall,
            )
            if back:
                raise AnalysisError(
                    f"region {region['index']} has an unexpected back edge"
                )
            exits: list[MCState] = []
            worst = -1
            for target, bucket in externals.items():
                if target is not None and target != region["next"]:
                    raise AnalysisError(
                        f"region {region['index']} exits to unexpected "
                        f"{target:#x}"
                    )
                for st in bucket.values():
                    worst = max(worst, st.frontier)
                    exits.append(st)
            if not exits:
                raise AnalysisError(
                    f"region {region['index']} has no exit"
                )
            cycles.append(worst)
            carried = exits
        return cycles

    # -- scope walking -----------------------------------------------------------

    def _walk(
        self,
        fentry: int,
        fcfg: FunctionCFG,
        members: set[int],
        level_loops: list[Loop],
        entry: int,
        states: list[MCState],
        backedge_header: int | None,
        stall: int,
    ) -> tuple[list[MCState], dict[int | None, Bucket]]:
        """Push state sets through one scope's DAG in topological order.

        Returns (back-edge states, external exits keyed by target — None
        for function return / halt).
        """
        plan = self.a.scope_plan(
            fcfg, members, level_loops, entry, backedge_header
        )
        node_of = plan.node_of
        pending: dict[Node, Bucket] = {}
        back_bucket: Bucket = {}
        externals: dict[int | None, Bucket] = {}

        def deliver(target: int | None, st: MCState) -> None:
            if target is not None and target == backedge_header:
                self._add(back_bucket,
                          self._digest(fentry, backedge_header, st), st)
            elif target is None or target not in node_of:
                bucket = externals.setdefault(target, {})
                self._add(bucket, self._digest(fentry, None, st), st)
            else:
                node = node_of[target]
                bucket = pending.setdefault(node, {})
                self._add(bucket, self._digest(fentry, node[1], st), st)

        seed_bucket = pending.setdefault(node_of[entry], {})
        for st in states:
            self._add(seed_bucket, self._digest(fentry, entry, st), st)

        for node in plan.order:
            bucket_or_none = pending.pop(node, None)
            if not bucket_or_none:
                continue
            kind, addr = node
            if kind == "loop":
                outs = self._loop(
                    fentry, fcfg, plan.loops_by_header[addr],
                    list(bucket_or_none.values()), stall,
                )
                for target, out in outs:
                    deliver(target, out)
            else:
                block = fcfg.blocks[addr]
                for st in bucket_or_none.values():
                    for target, out in self._block(fentry, block, st, stall):
                        deliver(target, out)
        return list(back_bucket.values()), externals

    def _block(
        self, fentry: int, block: BasicBlock, st: MCState, stall: int
    ) -> list[tuple[int | None, MCState]]:
        """Walk one basic block with one state; returns (target, state).

        Timing and values are independent (see ``advance_block``), so a
        block's timing runs in one recurrence call and its values after.
        """
        plan = self.a.block_plan(fentry, block)
        insts = block.instructions
        values = st.values
        last = insts[-1]
        if last.is_branch and len(plan.edges) > 1:
            cache_block = self._advance(st, plan.body, None, stall, False)
            for inst in insts[:-1]:
                values.apply(inst)
            taken = values.eval_branch(last)
            live = [
                edge
                for (kind, _), edge in zip(block.successors, plan.edges)
                if taken is None or (kind == "taken") == taken
            ]
            outs: list[tuple[int | None, MCState]] = []
            for i, (target, penalty) in enumerate(live):
                out = st if i == len(live) - 1 else st.clone()
                self._advance(out, plan.last, cache_block, stall, penalty)
                outs.append((target, out))
            return outs
        # One out-edge; a call block's (after its ``jal``) has no penalty.
        target, penalty = plan.edges[0]
        self._advance(st, plan.insts, None, stall, penalty)
        for inst in insts:
            values.apply(inst)
        if block.call_target is None:
            return [(target, st)]
        results = self._function(block.call_target, [st], stall)
        return [(target, s) for s in results]

    def _function(
        self, entry: int, states: list[MCState], stall: int
    ) -> list[MCState]:
        """Analysis-time inlining: push the state set through the callee."""
        fcfg = self.a.cfg.functions[entry]
        forest = self.a.loops[entry]
        back, externals = self._walk(
            entry, fcfg, set(fcfg.blocks), forest.roots, entry, states,
            None, stall,
        )
        if back:
            raise AnalysisError(
                f"function {entry:#x} has an unexpected back edge"
            )
        results: list[MCState] = []
        for target, bucket in externals.items():
            if target is not None:
                raise AnalysisError(
                    f"function {entry:#x} escapes to {target:#x}"
                )
            results.extend(bucket.values())
        if not results:
            raise AnalysisError(f"function {entry:#x} never returns")
        return results

    def _loop(
        self,
        fentry: int,
        fcfg: FunctionCFG,
        loop: Loop,
        states: list[MCState],
        stall: int,
    ) -> list[tuple[int | None, MCState]]:
        """Exact loop unrolling up to the declared ``.loopbound``.

        Each round pushes the surviving states through the body once;
        states whose (known) exit condition fires leave through the
        collected exits.  If imprecise states still want another
        iteration past the declared bound, the bound is trusted — the
        same contract the static analyzer's replication relies on — and
        one final walk collects the exit paths.
        """
        outs: list[tuple[int | None, MCState]] = []
        current = states
        for _ in range(loop.bound):
            back, externals = self._walk(
                fentry, fcfg, loop.blocks, loop.children, loop.header,
                current, loop.header, stall,
            )
            for target, bucket in externals.items():
                outs.extend((target, st) for st in bucket.values())
            if not back:
                return outs
            current = back
        back, externals = self._walk(
            fentry, fcfg, loop.blocks, loop.children, loop.header,
            current, loop.header, stall,
        )
        if back:
            self.stats.bound_exhausted += 1
        for target, bucket in externals.items():
            outs.extend((target, st) for st in bucket.values())
        if not outs:
            raise AnalysisError(f"loop at {loop.header:#x} has no exit")
        return outs

    # -- state bookkeeping --------------------------------------------------------

    def _advance(
        self,
        st: MCState,
        insts: tuple[BlockInst, ...],
        cache_block: int | None,
        stall: int,
        penalty: bool,
    ) -> int | None:
        """Time ``insts`` on ``st``, its exact cache deciding each miss."""
        self.stats.steps += len(insts)
        return advance_block(
            st.timing, insts, cache_block, st.icache.access, stall, penalty
        )

    def _digest(
        self, fentry: int, addr: int | None, st: MCState
    ) -> DigestKey:
        relevant = (
            None if addr is None else self.relevance.get((fentry, addr))
        )
        return (st.values.digest(relevant), st.icache.digest())

    def _add(self, bucket: Bucket, key: DigestKey, st: MCState) -> None:
        """Insert ``st`` into a state set, merging or widening as needed."""
        current = bucket.get(key)
        if current is not None:
            # Digest-equal: identical branch-relevant values, memory, and
            # cache behaviour.  Keep the component-wise worst timing and
            # only the value facts both agree on.
            current.timing = merge_timing(current.timing, st.timing)
            current.values.intersect(st.values)
            self.stats.merges += 1
            return
        bucket[key] = st
        if len(bucket) > self.state_cap:
            self._collapse(bucket)

    def _collapse(self, bucket: Bucket) -> None:
        """Shrink an over-full state set, cheapest precision first.

        The explosion on data-dependent code comes from divergent *known
        values* (e.g. adpcm's quantizer constants), not from cache
        diversity, so the first stage groups states by exact cache
        digest and intersects values within each group: the caches stay
        exact, and the only cost is branches turning unknown (more paths
        explored — never a bound above the static analyzer's, which also
        walks every path).  Joining caches (:meth:`ExactICache.join`)
        is the last resort: it can re-charge a miss the static engine's
        persistence model prepays only once, pushing the "exact" bound
        *above* the static one, so it runs only if cache diversity alone
        still exceeds the cap.
        """
        groups: dict[ICacheDigest, MCState] = {}
        for st in bucket.values():
            key = st.icache.digest()
            current = groups.get(key)
            if current is None:
                groups[key] = st
            else:
                current.timing = merge_timing(current.timing, st.timing)
                current.values.intersect(st.values)
        bucket.clear()
        if len(groups) > self.state_cap:
            widened = self._widen(list(groups.values()))
            bucket[self._digest(0, None, widened)] = widened
            self.stats.widenings += 1
            return
        self.stats.value_collapses += 1
        for st in groups.values():
            self._add(bucket, self._digest(0, None, st), st)

    def _widen(self, states: list[MCState]) -> MCState:
        """Collapse a state set into one conservative state (sound)."""
        base = states[0]
        for other in states[1:]:
            base.timing = merge_timing(base.timing, other.timing)
            base.values.intersect(other.values)
            base.icache.join(other.icache)
        return base

"""Static VISA pipeline model.

The path state and join rules the static analyzer threads through the
*same* timing recurrence the dynamic in-order core uses
(:mod:`repro.pipelines.inorder_engine`; the analyzer runs its block form,
``advance_block``), with worst-case inputs:

* I-cache: a reference misses at every cache-block transition unless the
  block is covered by a persistence (first-miss) charge of an active scope,
* D-cache: hits in the pipeline model; worst-case miss stalls are added as
  padding (paper §3.3 last paragraph),
* branches: the executed edge determines whether the static BTFN predictor
  mispredicts — exactly the rule the dynamic core applies,
* control-flow joins: pipeline states merge by *component-wise maximum*,
  which is a sound upper bound because the timing recurrence is monotone
  in every state component (only ``max`` and ``+`` of non-negative
  quantities).  This gives linear-time analysis without path enumeration,
  while the fix-point machinery in :mod:`repro.wcet.analyzer` recovers the
  per-iteration tightness the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instruction import Instruction
from repro.pipelines.inorder_engine import TimingState


@dataclass
class PathState:
    """Pipeline state threaded along static paths.

    Attributes:
        timing: The shared in-order recurrence state (absolute cycles from
            the scope origin).
        cache_block: Cache block of the most recently fetched instruction
            (None = unknown, e.g. right after a join of divergent paths).
    """

    timing: TimingState
    cache_block: int | None = None

    @classmethod
    def fresh(cls) -> "PathState":
        return cls(timing=TimingState())

    def clone(self) -> "PathState":
        return PathState(timing=self.timing.clone(), cache_block=self.cache_block)

    def shift(self, cycles: int) -> "PathState":
        """Charge ``cycles`` of stall before continuing (e.g. fm misses)."""
        if cycles == 0:
            return self
        return PathState(
            timing=self.timing.shift(cycles), cache_block=self.cache_block
        )

    @property
    def frontier(self) -> int:
        """Completion time of everything issued so far (last writeback)."""
        return self.timing.mem_free + 1


def merge_timing(ta: TimingState, tb: TimingState) -> TimingState:
    """Component-wise maximum of two timing states (sound upper bound).

    Shared by the static analyzer's path joins and the model-checking
    engine's state subsumption — both rely on the recurrence being
    monotone in every component.
    """
    reg_ready = dict(ta.reg_ready)
    for key, value in tb.reg_ready.items():
        if reg_ready.get(key, -1) < value:
            reg_ready[key] = value
    return TimingState(
        last_fetch=max(ta.last_fetch, tb.last_fetch),
        redirect=max(ta.redirect, tb.redirect),
        ex_free=max(ta.ex_free, tb.ex_free),
        mem_free=max(ta.mem_free, tb.mem_free),
        prev_mem_start=max(ta.prev_mem_start, tb.prev_mem_start),
        front_occupancy=tuple(
            max(x, y) for x, y in zip(ta.front_occupancy, tb.front_occupancy)
        ),
        reg_ready=reg_ready,
    )


def merge(a: PathState | None, b: PathState) -> PathState:
    """Sound join: component-wise maximum of two pipeline states."""
    if a is None:
        return b.clone()
    merged = merge_timing(a.timing, b.timing)
    cache_block = a.cache_block if a.cache_block == b.cache_block else None
    return PathState(timing=merged, cache_block=cache_block)


def edge_penalty(inst: Instruction, kind: str) -> bool:
    """Does the VISA's static BTFN predictor mispredict this edge?

    Mirrors the dynamic core: backward branches predicted taken, forward
    not-taken; indirect jumps (returns) always stall fetch.
    """
    if inst.is_branch:
        predicted_taken = inst.is_backward_branch()
        actually_taken = kind == "taken"
        return predicted_taken != actually_taken
    if inst.is_indirect_jump:
        return True
    return False

"""Reusable forward/backward worklist dataflow engine over a function CFG.

The engine is direction-generic: a :class:`DataflowProblem` names its
direction, lattice operations (``bottom``/``join``), boundary value, and a
*block* transfer function.  ``solve`` then iterates a worklist to the least
fixed point and returns the state at each block boundary, in *dataflow
direction*:

* forward problems: ``before[b]`` is the state at the block's first
  instruction, ``after[b]`` at its last;
* backward problems: ``before[b]`` is the state at the block's *end*
  (e.g. live-out), ``after[b]`` at its start (live-in).

Checks that need per-instruction precision re-walk each block with the
solved boundary states; the per-block transfer functions live next to the
analyses in :mod:`repro.analysis.regflow` / :mod:`repro.analysis.stackframe`.

Termination: every lattice used here has finite height (register sets are
bounded by the register file; abstract values collapse to ``unknown`` after
one disagreement), and all transfer functions are monotone, so the worklist
drains.  The engine additionally enforces a generous iteration budget and
raises :class:`repro.errors.AnalysisError` if it is ever exceeded — the
lint driver turns that into a diagnostic instead of a hang.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.errors import AnalysisError
from repro.wcet.cfg import BasicBlock, FunctionCFG

L = TypeVar("L")

#: Worklist budget multiplier: a block may be reprocessed at most this many
#: times before the engine declares divergence (far above any real bound
#: for the finite-height lattices used by the lint analyses).
MAX_VISITS_PER_BLOCK = 64


class DataflowProblem(Generic[L]):
    """One dataflow analysis: direction, lattice, and transfer function.

    Subclasses set :attr:`forward` and implement the four methods.  States
    must be treated as immutable values: ``transfer`` returns a fresh state
    and never mutates its argument.
    """

    #: True for forward problems (entry -> exits), False for backward.
    forward: bool = True

    def bottom(self) -> L:
        """The optimistic initial value for non-boundary blocks."""
        raise NotImplementedError

    def boundary(self) -> L:
        """The state injected at the CFG boundary (entry or every exit)."""
        raise NotImplementedError

    def join(self, a: L, b: L) -> L:
        """Least upper bound of two states (merge point)."""
        raise NotImplementedError

    def transfer(self, block: BasicBlock, state: L) -> L:
        """Propagate ``state`` across ``block`` in dataflow direction."""
        raise NotImplementedError


@dataclass
class DataflowResult(Generic[L]):
    """Fixed-point states per block, keyed by block start address.

    ``before``/``after`` are in dataflow direction (see module docstring).
    """

    before: dict[int, L]
    after: dict[int, L]


def _forward_edges(cfg: FunctionCFG) -> dict[int, list[int]]:
    """Successor map restricted to in-function targets."""
    succs: dict[int, list[int]] = {addr: [] for addr in cfg.blocks}
    for addr, block in cfg.blocks.items():
        for _kind, target in block.successors:
            if target is not None and target in cfg.blocks:
                succs[addr].append(target)
    return succs


def solve(problem: DataflowProblem[L], cfg: FunctionCFG) -> DataflowResult[L]:
    """Run ``problem`` to its least fixed point over ``cfg``.

    Raises:
        AnalysisError: if the iteration budget is exhausted (a transfer
            function that is not monotone over a finite-height lattice).
    """
    succs = _forward_edges(cfg)
    preds = cfg.predecessors()
    exits = set(cfg.return_blocks)
    if problem.forward:
        feed = preds  # state at b's start comes from its predecessors
        out_edges = succs
        seeded = {cfg.entry}
    else:
        feed = succs  # state at b's end comes from its successors
        out_edges = preds
        # Every block with no in-function successor ends the function
        # (returns, halt); they all receive the boundary value.
        seeded = exits | {a for a, s in succs.items() if not s}

    before: dict[int, L] = {}
    after: dict[int, L] = {}
    visits: dict[int, int] = {addr: 0 for addr in cfg.blocks}
    budget = MAX_VISITS_PER_BLOCK * max(1, len(cfg.blocks))

    # Seed in dataflow direction: a backward problem starts from the
    # highest addresses, where the exits are, so on an acyclic CFG each
    # block is visited once, after every block it depends on.
    worklist: deque[int] = deque(
        sorted(cfg.blocks, reverse=not problem.forward)
    )
    queued = set(worklist)
    while worklist:
        addr = worklist.popleft()
        queued.discard(addr)
        visits[addr] += 1
        budget -= 1
        if budget < 0:
            raise AnalysisError(
                f"dataflow iteration diverged at block {addr:#x} "
                f"({visits[addr]} visits)"
            )
        state = problem.bottom()
        if addr in seeded:
            state = problem.join(state, problem.boundary())
        for neighbor in feed[addr]:
            if neighbor in after:
                state = problem.join(state, after[neighbor])
        new_after = problem.transfer(cfg.blocks[addr], state)
        before[addr] = state
        if addr in after and after[addr] == new_after:
            continue
        after[addr] = new_after
        for target in out_edges[addr]:
            if target not in queued:
                queued.add(target)
                worklist.append(target)
    return DataflowResult(before=before, after=after)

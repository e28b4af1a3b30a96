"""The worklist order of the dataflow engine (:mod:`repro.analysis.dataflow`).

The engine seeds its worklist in dataflow direction: ascending addresses
for a forward problem, descending (from the exits) for a backward one.
On an acyclic CFG whose edges all go to higher addresses either order
is a topological one, so each block is visited exactly once, and the
fixed point is the same whichever order reaches it.
"""

from __future__ import annotations

import pytest

from repro.analysis.dataflow import DataflowProblem, solve
from repro.isa.assembler import assemble
from repro.wcet.cfg import BasicBlock, build_cfg

#: Two diamonds in a row, with an early exit: acyclic, six blocks.
ACYCLIC = """
main:
    addi t0, zero, 1
    beq t0, zero, other
    addi t1, zero, 2
    j join
other:
    addi t1, zero, 3
join:
    add t2, t1, t0
    blt t2, zero, done
    addi t2, t2, 1
done:
    halt
"""

Reach = frozenset[int]


class _Reach(DataflowProblem[Reach]):
    """Blocks reachable along the dataflow direction, with every visit
    recorded."""

    def __init__(self, forward: bool) -> None:
        self.forward = forward
        self.visits: list[int] = []

    def bottom(self) -> Reach:
        return frozenset()

    def boundary(self) -> Reach:
        return frozenset()

    def join(self, a: Reach, b: Reach) -> Reach:
        return a | b

    def transfer(self, block: BasicBlock, state: Reach) -> Reach:
        self.visits.append(block.start)
        return state | {block.start}


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_acyclic_cfg_visits_each_block_once(forward):
    program = assemble(ACYCLIC)
    cfg = build_cfg(program).functions[program.entry]
    assert len(cfg.blocks) == 6
    problem = _Reach(forward)
    result = solve(problem, cfg)
    assert sorted(problem.visits) == sorted(cfg.blocks)
    # The answer is the fixed point: the entry reaches every block
    # forward, and every block reaches the exit backward.
    exit_block = max(cfg.blocks)
    if forward:
        assert result.after[exit_block] >= {program.entry, exit_block}
    else:
        assert result.after[program.entry] == frozenset(cfg.blocks)

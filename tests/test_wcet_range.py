"""The range pass: one static pass for every memory stall of the DVS range.

:meth:`repro.wcet.analyzer.WCETAnalyzer.stall_lines` walks the program
once with every timing value a line in the stall
(:mod:`repro.wcet.envelope`).  It is an optimisation, never a second
semantics: its lines must equal a scalar pass at *every* integer stall
of the range, and where it cannot stay exact the analyzer must fall
back to per-stall passes with bit-identical results.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import CacheConfig
from repro.minicc import compile_source
from repro.wcet import analyzer as analyzer_mod
from repro.wcet.analyzer import WCETAnalyzer, _Run
from repro.wcet.envelope import STALL, RangeFallback, StallRange, pack
from repro.workloads import EXTRA_WORKLOAD_NAMES, WORKLOAD_NAMES, get_workload
from tests.test_wcet_random import _Gen
from tests.test_wcet_random_memory import _generate

#: I-caches small enough that paths differ in the misses they are
#: charged, so joins meet lines of different slopes.
SMALL_ICACHES = [
    CacheConfig(size_bytes=1024, assoc=1, block_bytes=64),
    CacheConfig(size_bytes=256, assoc=1, block_bytes=16),
]

#: Two paths that cross inside the range under the 256 B I-cache: two
#: divides on one, and on the other enough code to span several cache
#: blocks.  Their join is no line, so the range pass falls back.
CROSSING = """
int a[4];
void main() {
  int x; int y; int i;
  x = a[0]; y = a[1] + 1;
  for (i = 0; i < 6; i = i + 1) {
    if (x > y) { x = x / y; x = x / y; } else { %s }
  }
  __out(x + y);
}
""" % " ".join(f"y = y + {i};" for i in range(24))


def _scalar(analyzer: WCETAnalyzer, stall: int) -> list[int]:
    return _Run(analyzer, stall).region_cycles()


def _freq(analyzer: WCETAnalyzer, stall: int) -> float:
    """A clock whose memory stall is exactly ``stall`` cycles."""
    return (stall - 0.5) / (analyzer.mem_stall_ns * 1e-9)


def _line_cycles(lines, stall: int) -> list[int]:
    return [base + misses * stall for base, misses in lines]


def _assert_exact(analyzer: WCETAnalyzer) -> None:
    before = analyzer_mod.STATS["fallbacks"]
    lines = analyzer.stall_lines()
    assert analyzer_mod.STATS["fallbacks"] == before
    lo, hi = analyzer.stall_range
    for stall in range(lo, hi + 1):
        assert _line_cycles(lines, stall) == _scalar(analyzer, stall), (
            f"stall {stall}"
        )


@pytest.mark.parametrize("scale", ["tiny", "default"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES)
def test_range_pass_equals_scalar_on_every_workload(name, scale):
    analyzer = WCETAnalyzer(get_workload(name, scale).program)
    assert analyzer.stall_range == (10, 100)
    _assert_exact(analyzer)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    memory=st.booleans(),
    icache=st.sampled_from([CacheConfig()] + SMALL_ICACHES),
)
def test_range_pass_equals_scalar_on_random_programs(seed, memory, icache):
    source = _generate(seed) if memory else _Gen(random.Random(seed)).program()
    analyzer = WCETAnalyzer(compile_source(source), cache_config=icache)
    before = analyzer_mod.STATS["fallbacks"]
    lines = analyzer.stall_lines()
    exact = analyzer_mod.STATS["fallbacks"] == before
    lo, hi = analyzer.stall_range
    for stall in range(lo, hi + 1):
        expected = _scalar(analyzer, stall)
        assert analyzer.analyze(_freq(analyzer, stall)).subtasks == [
            analyzer_mod.SubtaskWCET(index=k, cycles=c, stall=stall)
            for k, c in enumerate(expected)
        ]
        bound = _line_cycles(lines, stall)
        if exact:
            assert bound == expected
        else:
            assert all(b >= e for b, e in zip(bound, expected, strict=True))


def test_most_random_programs_keep_one_line():
    """The property above is no vacuous fallback: with Table 1 caches
    the range pass stays exact on random programs."""
    analyzer_mod.STATS.clear()
    for seed in range(20):
        program = compile_source(_Gen(random.Random(seed)).program())
        WCETAnalyzer(program).stall_lines()
    assert analyzer_mod.STATS["passes"] == 20
    assert analyzer_mod.STATS["fallbacks"] == 0


def test_crossing_paths_fall_back_to_identical_per_stall_passes():
    program = compile_source(CROSSING)
    reference = WCETAnalyzer(program, cache_config=SMALL_ICACHES[1])
    analyzer = WCETAnalyzer(program, cache_config=SMALL_ICACHES[1])
    analyzer_mod.STATS.clear()
    lo, hi = analyzer.stall_range
    scalar = {}
    for stall in range(lo, hi + 1):
        task = analyzer.analyze(_freq(analyzer, stall))
        scalar[stall] = _scalar(reference, stall)
        assert [s.cycles for s in task.subtasks] == scalar[stall]
    # The first stall's pass, the abandoned range pass, then one pass
    # per other stall: the cost model of an analyzer without ranges.
    assert analyzer_mod.STATS["fallbacks"] == 1
    assert analyzer_mod.STATS["passes"] == 1 + 1 + (hi - lo)
    # Its lines are the lowest safe ones with the end-to-end slope, and
    # asking for them costs no further pass.
    lines = analyzer.stall_lines()
    assert analyzer_mod.STATS["passes"] == 1 + 1 + (hi - lo)
    for k, (base, misses) in enumerate(lines):
        column = [scalar[s][k] for s in range(lo, hi + 1)]
        assert misses == -((column[0] - column[-1]) // (hi - lo))
        gaps = [base + misses * s - c for s, c in enumerate(column, lo)]
        assert min(gaps) == 0


class _KinkedRun(_Run):
    """A pass whose bound is no line: ``min(100 + 3s, 140 + 2s)`` and
    ``max(...)`` of the same two lines, which cross at stall 40."""

    def region_cycles(self):
        if self.stall == STALL:
            raise RangeFallback("no line")
        lines = (100 + 3 * self.stall, 140 + 2 * self.stall)
        return [min(lines), max(lines)]


def test_fallback_line_is_safe_for_a_bound_that_is_no_line():
    analyzer = WCETAnalyzer(get_workload("cnt", "tiny").program)
    analyzer.run_cls = _KinkedRun
    lines = analyzer.stall_lines()
    lo, hi = analyzer.stall_range
    assert lines == ((100, 3), (130, 3))
    for stall in range(lo, hi + 1):
        exact = _KinkedRun(analyzer, stall).region_cycles()
        task = analyzer.analyze(_freq(analyzer, stall))
        assert [s.cycles for s in task.subtasks] == exact
        assert all(b >= e for b, e in zip(_line_cycles(lines, stall), exact))


def test_first_stall_costs_one_scalar_pass():
    analyzer = WCETAnalyzer(get_workload("cnt", "tiny").program)
    analyzer_mod.STATS.clear()
    analyzer.analyze(1e9)
    analyzer.analyze(1e9)
    assert analyzer_mod.STATS["passes"] == 1
    analyzer.analyze(5e9)  # outside the range: its own pass
    assert analyzer_mod.STATS["passes"] == 2
    analyzer.analyze(500e6)  # inside: the range pass, then evaluations
    analyzer.analyze(250e6)
    assert analyzer_mod.STATS["passes"] == 3


def test_lines_first_then_every_stall_is_an_evaluation():
    analyzer = WCETAnalyzer(get_workload("cnt", "tiny").program)
    analyzer_mod.STATS.clear()
    lines = analyzer.stall_lines()
    for setting_hz in (100e6, 500e6, 1e9):
        analyzer.analyze(setting_hz)
    assert analyzer_mod.STATS["passes"] == 1
    assert isinstance(lines, tuple)


line_st = st.tuples(st.integers(-500, 5000), st.integers(0, 30))


@settings(max_examples=300, deadline=None)
@given(a=line_st, b=line_st, factor=st.integers(0, 5))
def test_line_operations_are_exact_at_every_stall(a, b, factor):
    """``vmax``, ``+`` and ``*`` on packed lines equal ``max``, ``+`` and
    ``*`` at every stall, and ``vmax`` gives up exactly when neither
    line is at or above the other on the whole range."""
    stalls = StallRange(10, 100)
    va, vb = pack(*a), pack(*b)
    at_a = [a[0] + a[1] * s for s in range(stalls.lo, stalls.hi + 1)]
    at_b = [b[0] + b[1] * s for s in range(stalls.lo, stalls.hi + 1)]
    for s, x, y in zip(range(stalls.lo, stalls.hi + 1), at_a, at_b):
        assert stalls.at(va + vb, s) == x + y
        assert stalls.at(va * factor, s) == x * factor
    if all(x >= y for x, y in zip(at_a, at_b)) or all(
        x <= y for x, y in zip(at_a, at_b)
    ):
        joined = stalls.vmax(va, vb)
        for s, x, y in zip(range(stalls.lo, stalls.hi + 1), at_a, at_b):
            assert stalls.at(joined, s) == max(x, y)
    else:
        with pytest.raises(RangeFallback):
            stalls.vmax(va, vb)


def test_loop_decisions_must_agree_across_the_range():
    stalls = StallRange(10, 100)
    # Equal at stall 10 only: a scalar pass would converge there alone.
    with pytest.raises(RangeFallback):
        stalls.same(pack(100, 2), pack(80, 4))
    assert stalls.same(pack(100, 2), pack(100, 2))
    assert not stalls.same(pack(100, 2), pack(81, 4))  # meet at 9.5
    assert not stalls.same(pack(300, 2), pack(0, 3))  # meet at 300
    assert not stalls.same(pack(300, 2), pack(200, 2))  # never meet
    # The largest of several per-iteration costs is one of them at
    # every stall, or the pass gives up.
    with pytest.raises(RangeFallback):
        stalls.vmax(pack(300, 1), pack(0, 5))  # cross at 75

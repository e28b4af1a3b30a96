"""WCET analyzer tests: safety, tightness, caching, frequency behaviour."""

import hashlib
import json

import pytest

from repro.errors import AnalysisError
from repro.isa.assembler import assemble
from repro.memory.cache import CacheConfig
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.inorder import InOrderCore
from repro.visa.dvs import DVSTable
from repro.wcet import analyzer as analyzer_mod
from repro.wcet.analyzer import WCETAnalyzer
from repro.wcet.dcache_pad import measure_dcache_misses
from repro.wcet.icache_static import (
    ALWAYS_HIT,
    ALWAYS_MISS,
    FIRST_MISS,
    persistent_blocks,
    scope_info,
)
from repro.workloads.suite import (
    EXTRA_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    get_workload,
)

#: sha256 over the region cycles of all 16 (workload, scale) programs at
#: every XScale stall, recorded with the per-instruction form of the
#: static pass.  Any change here is a change in a shipped bound.
XSCALE_SWEEP_SHA256 = (
    "b102f4eea41df8b3a816d092e220f1f5ecdd724bfcca7538a619b0541dc455c2"
)


def wcet_and_actual(source, freq=1e9, compile_c=False):
    program = compile_source(source) if compile_c else assemble(source)
    analyzer = WCETAnalyzer(program)
    # Input-independent test programs: the observed D-cache miss count is
    # exact, mirroring the paper's trace-derived padding (§3.3).
    analyzer.dcache_bounds = measure_dcache_misses(program)
    task = analyzer.analyze(freq)
    core = InOrderCore(Machine(program), freq_hz=freq)
    result = core.run()
    assert result.reason == "halt"
    return task.total_cycles, result.end_cycle


class TestSafetyOnKernels:
    """WCET >= actual for register-only kernels (no D-cache traffic)."""

    def test_straight_line(self):
        wcet, actual = wcet_and_actual("main:\nnop\nnop\nnop\nhalt")
        assert actual <= wcet <= actual + 16

    def test_counted_loop_exact_iterations(self):
        source = (
            "main:\nli t0, 20\n.loopbound 20\nloop:\nsubi t0, t0, 1\n"
            "bgtz t0, loop\nhalt"
        )
        wcet, actual = wcet_and_actual(source)
        assert actual <= wcet
        assert wcet <= actual * 1.3 + 40  # fix-point keeps it tight

    def test_branchy_code_takes_longest_path(self):
        # Taken path is 1 instruction, fall path is 6 — analyzer must
        # assume the longer one even though execution takes the short one.
        source = (
            "main:\nli t0, 1\nbgtz t0, short\n"
            "mul t1, t0, t0\nmul t2, t0, t0\nmul t3, t0, t0\n"
            "mul t4, t0, t0\nmul t5, t0, t0\n"
            "short:\nhalt"
        )
        wcet, actual = wcet_and_actual(source)
        assert wcet >= actual

    def test_multicycle_ops_counted(self):
        source = "main:\nli t0, 6\nli t1, 2\ndiv t2, t0, t1\nhalt"
        wcet, actual = wcet_and_actual(source)
        assert actual <= wcet <= actual + 16

    def test_function_call_inlined(self):
        source = (
            "main:\nli a0, 4\njal f\nmove s0, v0\nhalt\n"
            "f:\nadd v0, a0, a0\njr ra\n"
        )
        wcet, actual = wcet_and_actual(source)
        assert actual <= wcet <= actual + 32

    def test_nested_loops(self):
        source = """
        void main() {
          int i; int j; int acc;
          acc = 0;
          for (i = 0; i < 8; i = i + 1) {
            for (j = 0; j < 8; j = j + 1) {
              acc = acc + i * j;
            }
          }
          __out(acc);
        }
        """
        wcet, actual = wcet_and_actual(source, compile_c=True)
        assert actual <= wcet <= int(actual * 1.6)

    def test_early_exit_loop_charged_full_bound(self):
        source = """
        void main() {
          int i; int acc;
          acc = 0;
          for (i = 0; i < 100; i = i + 1) {
            acc = acc + i;
            if (i == 4) { break; }
          }
          __out(acc);
        }
        """
        wcet, actual = wcet_and_actual(source, compile_c=True)
        # Execution breaks after 5 iterations; analysis must assume 100.
        assert wcet > actual * 4


class TestFrequencyBehaviour:
    def test_memory_stall_scales_with_frequency(self):
        source = "main:\n" + "nop\n" * 40 + "halt"
        program = assemble(source)
        analyzer = WCETAnalyzer(program)
        fast = analyzer.analyze(1e9)
        slow = analyzer.analyze(1e8)
        assert fast.stall == 100 and slow.stall == 10
        assert fast.total_cycles > slow.total_cycles
        # Time at lower frequency is longer even with fewer stall cycles.
        assert slow.total_seconds > fast.total_seconds

    def test_results_cached_per_stall(self):
        program = assemble("main:\nnop\nhalt")
        analyzer = WCETAnalyzer(program)
        first = analyzer.analyze(1e9)
        second = analyzer.analyze(1e9)
        assert first.total_cycles == second.total_cycles
        assert len(analyzer._result_cache) == 1


class TestGoldenSweep:
    def test_xscale_region_cycles_unchanged(self):
        """Every bound of the 37-point sweep, on every workload program,
        is bit-identical to the recorded one, and a cold analyzer takes
        two analysis passes for all 37 stalls: a scalar pass at the first
        and one range pass that answers every other."""
        settings = DVSTable.xscale().settings
        digest = hashlib.sha256()
        for scale in ("tiny", "default"):
            for name in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
                analyzer = WCETAnalyzer(get_workload(name, scale).program)
                before = analyzer_mod.STATS["passes"]
                rows = []
                for setting in settings:
                    task = analyzer.analyze(setting.freq_hz)
                    rows.append([task.stall, [s.cycles for s in task.subtasks]])
                assert analyzer_mod.STATS["passes"] - before == 2
                assert len({stall for stall, _ in rows}) == 37
                digest.update(json.dumps([name, scale, rows]).encode())
        assert digest.hexdigest() == XSCALE_SWEEP_SHA256


class TestSubtasks:
    def test_subtask_partitioning(self):
        source = """
        int data[16];
        void main() {
          int i;
          __subtask(0);
          for (i = 0; i < 8; i = i + 1) { data[i] = i; }
          __subtask(1);
          for (i = 8; i < 16; i = i + 1) { data[i] = i * i; }
          __taskend();
        }
        """
        program = compile_source(source)
        analyzer = WCETAnalyzer(program)
        task = analyzer.analyze(1e9)
        assert len(task.subtasks) == 2
        assert all(s.cycles > 0 for s in task.subtasks)
        # tail_seconds(0) is the whole task, tail_seconds(1) only the last.
        assert task.tail_seconds(0) > task.tail_seconds(1) > 0
        assert task.tail_seconds(0) == pytest.approx(task.total_seconds)

    def test_dcache_bounds_pad_wcet(self):
        program = compile_source(
            "int a[4]; void main() { __subtask(0); a[0] = 1; __taskend(); }"
        )
        analyzer = WCETAnalyzer(program)
        bare = analyzer.analyze(1e9).total_cycles
        analyzer.dcache_bounds = [5]
        analyzer._result_cache.clear()
        padded = analyzer.analyze(1e9)
        assert padded.total_cycles == bare + 5 * padded.stall

    def test_program_without_subtasks_is_one_region(self):
        program = assemble("main:\nnop\nhalt")
        analyzer = WCETAnalyzer(program)
        assert analyzer.num_subtasks == 1


class TestCacheCategorization:
    def test_small_scope_all_persistent(self):
        config = CacheConfig()
        addrs = set(range(0x400000, 0x400400, 4))  # 1 KB of code
        info = scope_info(addrs, config)
        assert info.persistent == info.blocks

    def test_conflicting_blocks_not_persistent(self):
        config = CacheConfig(size_bytes=512, assoc=2, block_bytes=64)
        sets = config.num_sets
        # Five blocks mapping to set 0 in a 2-way cache: none persist.
        addrs = {i * 64 * sets for i in range(5)}
        assert persistent_blocks(
            {a >> config.block_shift for a in addrs}, config
        ) == set()

    def test_table2_categories(self):
        config = CacheConfig(size_bytes=512, assoc=2, block_bytes=64)
        sets = config.num_sets
        conflict_addrs = {i * 64 * sets for i in range(5)}
        info = scope_info(conflict_addrs | {0x40}, config)
        block_conflicting = 0  # one of the 5 conflicting blocks
        block_quiet = 0x40 >> config.block_shift
        assert info.categorize(block_conflicting, set()) == ALWAYS_MISS
        assert info.categorize(block_quiet, set()) == FIRST_MISS
        assert info.categorize(block_quiet, {block_quiet}) == ALWAYS_HIT


class TestAnalysisErrors:
    def test_loop_without_bound(self):
        program = assemble(
            "main:\nli t0, 3\nloop:\nsubi t0, t0, 1\nbgtz t0, loop\nhalt"
        )
        with pytest.raises(AnalysisError):
            WCETAnalyzer(program)

    def test_recursion(self):
        program = assemble("main:\njal f\nhalt\nf:\njal f\njr ra\n")
        with pytest.raises(AnalysisError):
            WCETAnalyzer(program)

"""Timed-binary tests (paper §1.2: timing-safety binary compatibility)."""

import json

import pytest

from repro.errors import ReproError
from repro.memory.cache import CacheConfig
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.inorder import InOrderCore
from repro.snapshot import runcache
from repro.visa.binary import attach_wcet, dumps, loads, visa_fingerprint
from repro.visa.spec import VISASpec
from repro.wcet import analyzer as analyzer_mod
from repro.wcet.analyzer import _Run
from repro.wcet.envelope import RangeFallback, StallRange
from repro.wcet.dcache_pad import measure_dcache_misses
from tests.test_wcet_range import CROSSING, SMALL_ICACHES

SOURCE = """
int data[24];
void main() {
  int i;
  __subtask(0);
  for (i = 0; i < 12; i = i + 1) { data[i] = i * i; }
  __subtask(1);
  for (i = 12; i < 24; i = i + 1) { data[i] = i + i; }
  __taskend();
}
"""


@pytest.fixture(scope="module")
def timed():
    program = compile_source(SOURCE)
    bounds = measure_dcache_misses(program)
    return attach_wcet(program, dcache_bounds=bounds)


class TestFingerprint:
    def test_stable(self):
        assert visa_fingerprint(VISASpec()) == visa_fingerprint(VISASpec())

    def test_sensitive_to_cache_geometry(self):
        other = VISASpec(icache=CacheConfig(size_bytes=32 * 1024))
        assert visa_fingerprint(other) != visa_fingerprint(VISASpec())


class TestParameterizedWCET:
    def test_dominates_exact_analysis_across_dvs_grid(self, timed):
        spec = VISASpec()
        analyzer = spec.analyzer(timed.program)
        analyzer.dcache_bounds = [p.dmiss_bound for p in timed.params]
        for i in range(37):
            freq = 100e6 + 25e6 * i
            packaged = timed.wcet(freq)
            exact = analyzer.analyze(freq)
            for sub_p, sub_e in zip(packaged.subtasks, exact.subtasks):
                assert sub_p.total_cycles >= sub_e.total_cycles

    def test_equals_scalar_analysis_at_every_stall_of_the_range(self, timed):
        analyzer = VISASpec().analyzer(timed.program)
        assert timed.stall_range == (10, 100)
        for stall in range(10, 101):
            packaged = timed.wcet((stall - 0.5) * 1e7)  # 100 ns stall
            assert packaged.stall == stall
            assert [s.cycles for s in packaged.subtasks] == _Run(
                analyzer, stall
            ).region_cycles()
            assert [s.dmiss_bound for s in packaged.subtasks] == [
                p.dmiss_bound for p in timed.params
            ]

    def test_bound_covers_execution(self, timed):
        machine = Machine(timed.program)
        result = InOrderCore(machine, freq_hz=1e9).run()
        assert timed.wcet(1e9).total_cycles >= result.end_cycle

    def test_spec_mismatch_rejected(self, timed):
        other = VISASpec(mem_stall_ns=50.0)
        with pytest.raises(ReproError):
            timed.wcet(1e9, spec=other)

    def test_out_of_range_frequency_rejected(self, timed):
        with pytest.raises(ReproError):
            timed.wcet(5e9)

    def test_subtask_structure_preserved(self, timed):
        task = timed.wcet(500e6)
        assert len(task.subtasks) == 2
        assert task.tail_seconds(0) > task.tail_seconds(1)


class TestRangePassFallback:
    """A program whose range pass falls back still packs, with the
    lowest safe line over the scalar pass at every stall of the range."""

    def test_crossing_program_packs_a_safe_line(self):
        spec = VISASpec(icache=SMALL_ICACHES[1])
        program = compile_source(CROSSING)
        before = analyzer_mod.STATS["fallbacks"]
        binary = attach_wcet(program, spec=spec)
        assert analyzer_mod.STATS["fallbacks"] == before + 1
        analyzer = spec.analyzer(program)
        gaps = [[] for _ in binary.params]
        for stall in range(10, 101):
            packaged = binary.wcet((stall - 0.5) * 1e7)
            exact = _Run(analyzer, stall).region_cycles()
            for k, (sub, cycles) in enumerate(zip(packaged.subtasks, exact)):
                gaps[k].append(sub.cycles - cycles)
        assert all(min(gap) == 0 for gap in gaps)
        assert loads(dumps(binary)).params == binary.params

    def test_forced_fallback_still_packs_every_program(
        self, monkeypatch, request
    ):
        def give_up(self, a, b):
            raise RangeFallback("forced")

        monkeypatch.setattr(StallRange, "vmax", give_up)
        runcache.clear_memory()  # no warm analyzer, none left behind
        request.addfinalizer(runcache.clear_memory)
        program = compile_source(SOURCE)
        before = analyzer_mod.STATS["fallbacks"]
        binary = attach_wcet(program)
        assert analyzer_mod.STATS["fallbacks"] == before + 1
        analyzer = VISASpec().analyzer(program)
        for stall in range(10, 101):
            packaged = binary.wcet((stall - 0.5) * 1e7)
            assert [s.cycles for s in packaged.subtasks] == _Run(
                analyzer, stall
            ).region_cycles()


class TestSerialization:
    def test_round_trip(self, timed):
        text = dumps(timed)
        loaded = loads(text)
        assert loaded.fingerprint == timed.fingerprint
        assert loaded.program.words == timed.program.words
        assert loaded.program.symbols == timed.program.symbols
        assert loaded.program.loop_bounds == timed.program.loop_bounds
        assert (
            loaded.wcet(1e9).total_cycles == timed.wcet(1e9).total_cycles
        )

    def test_loaded_program_executes_identically(self, timed):
        loaded = loads(dumps(timed))
        m1, m2 = Machine(timed.program), Machine(loaded.program)
        r1 = InOrderCore(m1).run()
        r2 = InOrderCore(m2).run()
        assert r1.end_cycle == r2.end_cycle
        assert m1.memory.snapshot() == m2.memory.snapshot()

    def test_unknown_format_rejected(self):
        with pytest.raises(ReproError):
            loads('{"format": "elf"}')

    def test_fitted_format_rejected_with_a_repack_hint(self, timed):
        payload = json.loads(dumps(timed))
        payload["format"] = "rtp32-timed-binary-1"
        with pytest.raises(ReproError, match="repro pack"):
            loads(json.dumps(payload))

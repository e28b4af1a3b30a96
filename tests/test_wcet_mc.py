"""Unit tests for the bounded model-checking WCET engine.

Covers the engine's building blocks (exact I-cache, value store,
branch-relevance slice), the exactness claim on single-path programs
(the MC bound *equals* the executed cycle count), and the CLI/service
surfaces that expose the engine.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.memory.cache import Cache, CacheConfig
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.inorder import InOrderCore
from repro.wcet.analyzer import WCETAnalyzer
from repro.wcet.dcache_pad import measure_dcache_misses
from repro.wcet.mc import ENGINES
from repro.wcet.mc.engine import ModelCheckEngine
from repro.wcet.mc.icache import ExactICache, orderfree_sets
from repro.wcet.mc.slicing import program_relevance
from repro.wcet.mc.values import ValueStore


# -- exact I-cache -----------------------------------------------------------------


def test_exact_icache_matches_dynamic_cache():
    """ExactICache is behaviourally identical to the dynamic LRU model."""
    config = CacheConfig(size_bytes=1024, assoc=2, block_bytes=64)
    rng = random.Random(7)
    dynamic = Cache(config)
    exact = ExactICache(config)
    blocks = [rng.randrange(64) for _ in range(2000)]
    for block in blocks:
        addr = block << config.block_shift
        assert dynamic.access(addr) == exact.access(block)
    resident = {
        b for way in exact.sets.values() for b in way
    }
    assert resident == dynamic.resident_blocks()


def test_icache_clone_is_independent():
    config = CacheConfig(size_bytes=1024, assoc=2, block_bytes=64)
    a = ExactICache(config)
    a.access(1)
    b = a.clone()
    b.access(2)
    assert a.digest(frozenset()) != b.digest(frozenset())


def test_orderfree_digest_merges_fetch_orders():
    """Sets that cannot overflow digest order-free: same contents, any
    access order, one digest — the canonicalization the engine's state
    merging relies on."""
    config = CacheConfig(size_bytes=1024, assoc=2, block_bytes=64)
    # Blocks 0 and 16 share set 0 (8 sets); footprint == assoc.
    free = orderfree_sets([0 << 6, 16 << 6], config)
    assert 0 in free
    a, b = ExactICache(config), ExactICache(config)
    a.access(0), a.access(16)
    b.access(16), b.access(0)
    assert a.digest(free) == b.digest(free)
    assert a.digest(frozenset()) != b.digest(frozenset())


def test_icache_join_keeps_only_common_blocks_at_worst_recency():
    config = CacheConfig(size_bytes=4096, assoc=4, block_bytes=64)
    a, b = ExactICache(config), ExactICache(config)
    for block in (1, 2, 3):
        a.access(block * 16)  # distinct sets
    for block in (2, 3, 4):
        b.access(block * 16)
    a.join(b)
    resident = {blk for way in a.sets.values() for blk in way}
    assert resident == {2 * 16, 3 * 16}


# -- value store -------------------------------------------------------------------


def test_value_store_initial_mirrors_reset_state():
    store = ValueStore.initial()
    from repro.isa import layout
    from repro.isa.registers import SP

    assert store.int_regs[0] == 0
    assert store.int_regs[SP] == layout.STACK_TOP
    assert store.memory == {}


def test_value_store_unknown_address_store_clobbers_memory():
    program = compile_source(SINGLE_PATH)
    inst = next(i for i in program.instructions if i.is_store)
    store = ValueStore.initial()
    store.memory[0x10000] = 42
    store.int_regs.pop(inst.rs, None)  # base register unknown
    store.apply(inst)
    # A store through an unknown address could alias any tracked word.
    assert store.memory == {}


def test_value_store_intersect_keeps_agreement_only():
    a, b = ValueStore.initial(), ValueStore.initial()
    a.int_regs[8], b.int_regs[8] = 5, 5
    a.int_regs[9], b.int_regs[9] = 1, 2
    a.memory[0x10000000] = 7
    a.intersect(b)
    assert a.int_regs[8] == 5
    assert 9 not in a.int_regs
    assert a.memory == {}


def test_value_store_digest_filters_by_relevance():
    a, b = ValueStore.initial(), ValueStore.initial()
    a.int_regs[9], b.int_regs[9] = 1, 2  # dead value
    relevant = frozenset({("i", 8)})
    assert a.digest(relevant) == b.digest(relevant)
    assert a.digest(None) != b.digest(None)


# -- branch-relevance slicing ------------------------------------------------------


def test_relevance_keeps_loop_counter_drops_dead_accumulator():
    source = (
        "void main() {\n"
        "  int i;\n"
        "  int acc;\n"
        "  acc = 0;\n"
        "  for (i = 0; i < 10; i = i + 1) { acc = acc + 3; }\n"
        "  __out(acc);\n"
        "}\n"
    )
    program = compile_source(source)
    analyzer = WCETAnalyzer(program)
    relevance = program_relevance(analyzer.cfg)
    # Every function block has an entry in the map.
    for entry, fcfg in analyzer.cfg.functions.items():
        for addr in fcfg.blocks:
            assert (entry, addr) in relevance
    # Inside the loop, some register (the counter) is branch-relevant.
    main = analyzer.cfg.entry_function
    loop_headers = [
        loop.header
        for loop in analyzer.loops[main.entry].by_header.values()
    ]
    assert loop_headers
    rel = relevance[(main.entry, loop_headers[0])]
    assert any(bank == "i" for bank, _ in rel)


# -- engine exactness --------------------------------------------------------------

SINGLE_PATH = (
    "void main() {\n"
    "  int i;\n"
    "  int acc;\n"
    "  acc = 0;\n"
    "  for (i = 0; i < 10; i = i + 1) { acc = acc + i; }\n"
    "  __out(acc);\n"
    "}\n"
)


def test_mc_is_exact_on_single_path_program():
    """On input-independent code the MC bound IS the executed cycle count
    (same recurrence, exact cache, exact loop trip counts, exact pad)."""
    program = compile_source(SINGLE_PATH)
    analyzer = WCETAnalyzer(program)
    analyzer.dcache_bounds = measure_dcache_misses(program)
    engine = ModelCheckEngine(analyzer)
    mc = engine.analyze(1e9)
    result = InOrderCore(Machine(program), freq_hz=1e9).run()
    assert result.reason == "halt"
    assert mc.total_cycles == result.end_cycle
    assert engine.stats.widenings == 0
    assert engine.stats.bound_exhausted == 0


def test_mc_never_exceeds_static_on_workload():
    from repro.workloads.suite import get_workload

    w = get_workload("crc", "tiny")
    analyzer = WCETAnalyzer(w.program)
    analyzer.dcache_bounds = measure_dcache_misses(w.program)
    static = analyzer.analyze(1e9)
    mc = ModelCheckEngine(analyzer).analyze(1e9)
    assert len(static.subtasks) == len(mc.subtasks)
    for s, m in zip(static.subtasks, mc.subtasks):
        assert s.cycles >= m.cycles


def test_mc_results_cache_per_stall():
    program = compile_source(SINGLE_PATH)
    analyzer = WCETAnalyzer(program)
    engine = ModelCheckEngine(analyzer)
    first = engine.analyze(1e9)
    steps = engine.stats.steps
    again = engine.analyze(1e9)  # same stall: cached, no new exploration
    assert engine.stats.steps == steps
    assert again.total_cycles == first.total_cycles
    engine.analyze(1e8)  # different stall: re-explored
    assert engine.stats.steps > steps


# -- service integration -----------------------------------------------------------


def test_service_pins_engine_into_wcet_payload():
    from repro.service.jobs import coalesce_key, normalize

    base = normalize("wcet", {"workload": "cnt"})
    assert base["engine"] == "static"
    explicit = normalize("wcet", {"workload": "cnt", "engine": "mc"})
    assert explicit["engine"] == "mc"
    # Engines never alias in the result store / coalescer.
    assert coalesce_key("wcet", base) != coalesce_key("wcet", explicit)
    assert ENGINES == ("static", "mc")


def test_service_rejects_unknown_engine():
    from repro.errors import ProtocolError
    from repro.service.jobs import normalize

    with pytest.raises(ProtocolError):
        normalize("wcet", {"workload": "cnt", "engine": "exhaustive"})


def test_service_executes_mc_engine():
    from repro.service.jobs import execute, normalize

    payload = normalize(
        "wcet", {"source": SINGLE_PATH, "engine": "mc", "freq_mhz": 1000.0}
    )
    result = execute("wcet", payload)
    assert result["engine"] == "mc"
    static = execute(
        "wcet",
        normalize(
            "wcet",
            {"source": SINGLE_PATH, "engine": "static", "freq_mhz": 1000.0},
        ),
    )
    assert static["engine"] == "static"
    assert result["total_cycles"] <= static["total_cycles"]


# -- CLI surfaces ------------------------------------------------------------------


def _write_single_path(tmp_path):
    path = tmp_path / "single.c"
    path.write_text(SINGLE_PATH)
    return str(path)


def test_cli_wcet_json_and_engine(tmp_path, capsys):
    from repro.cli import main

    path = _write_single_path(tmp_path)
    assert main(["wcet", path, "--engine", "mc", "--format", "json"]) == 0
    lines = [
        json.loads(line) for line in capsys.readouterr().out.splitlines()
    ]
    assert lines[-1]["type"] == "total"
    assert lines[-1]["engine"] == "mc"
    assert all(line["engine"] == "mc" for line in lines)
    subtasks = [line for line in lines if line["type"] == "subtask"]
    assert subtasks and {"cycles", "dmiss_bound", "total_cycles"} <= set(
        subtasks[0]
    )


def test_cli_wcet_diff_spelling_and_exit(tmp_path, capsys):
    from repro.cli import main

    path = _write_single_path(tmp_path)
    # Both spellings work; a sound program exits 0.
    assert main(["wcet", "diff", path]) == 0
    assert main(["wcet-diff", path, "--format", "json"]) == 0
    lines = [
        json.loads(line) for line in capsys.readouterr().out.splitlines()
        if line.startswith("{")
    ]
    program_lines = [l for l in lines if l["type"] == "program"]
    assert program_lines and program_lines[-1]["ok"] is True
    sub = [l for l in lines if l["type"] == "subtask"][0]
    assert {
        "static_cycles", "mc_cycles", "observed_simple",
        "observed_complex", "gap", "gap_pct", "violations",
    } <= set(sub)


def test_cli_wcet_diff_requires_targets(capsys):
    from repro.cli import main

    assert main(["wcet", "diff"]) == 2


def test_cli_lint_json(tmp_path, capsys):
    from repro.cli import main

    path = _write_single_path(tmp_path)
    assert main(["lint", path, "--format", "json"]) == 0
    lines = [
        json.loads(line) for line in capsys.readouterr().out.splitlines()
    ]
    assert lines[-1] == {"type": "summary", "programs": 1, "findings": 0}

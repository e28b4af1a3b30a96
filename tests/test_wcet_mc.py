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
from repro.wcet.mc.values import ValueStore, register_slice


# -- exact I-cache -----------------------------------------------------------------


def _resident(cache):
    """Every line an ExactICache holds, order-free sets and the rest."""
    return set(cache.lines) | {b for way in cache.sets.values() for b in way}


def test_exact_icache_matches_dynamic_cache():
    """ExactICache is behaviourally identical to the dynamic LRU model,
    with every set kept in MRU order and with the order-free sets of the
    stream's footprint kept as one line set."""
    config = CacheConfig(size_bytes=1024, assoc=2, block_bytes=64)
    rng = random.Random(7)
    # Blocks 0, 8 and 1, 9 fill sets 0 and 1 to the associativity
    # (order-free); blocks from 0..63 overflow sets 2..7.
    blocks = [
        rng.randrange(64) if rng.random() < 0.5 else rng.choice((0, 1, 8, 9))
        for _ in range(2000)
    ]
    blocks = [b for b in blocks if b % 8 > 1 or b in (0, 1, 8, 9)]
    free = orderfree_sets((b << 6 for b in blocks), config)
    assert free == {0, 1}
    for orderfree in (frozenset(), free):
        dynamic = Cache(config)
        exact = ExactICache(config, orderfree)
        for block in blocks:
            addr = block << config.block_shift
            assert dynamic.access(addr) == exact.access(block)
        assert _resident(exact) == dynamic.resident_blocks()
        assert bool(exact.lines) == bool(orderfree)


def test_icache_clone_is_independent():
    config = CacheConfig(size_bytes=1024, assoc=2, block_bytes=64)
    for free in (frozenset(), frozenset({1, 2})):
        a = ExactICache(config, free)
        a.access(1)
        b = a.clone()
        b.access(2)
        assert a.digest() != b.digest()
        assert _resident(a) == {1}


def test_orderfree_digest_merges_fetch_orders():
    """Sets that cannot overflow digest order-free: same contents, any
    access order, one digest — the canonicalization the engine's state
    merging relies on."""
    config = CacheConfig(size_bytes=1024, assoc=2, block_bytes=64)
    # Blocks 0 and 16 share set 0 (8 sets); footprint == assoc.
    free = orderfree_sets([0 << 6, 16 << 6], config)
    assert 0 in free
    a, b = ExactICache(config, free), ExactICache(config, free)
    a.access(0), a.access(16)
    b.access(16), b.access(0)
    assert a.digest() == b.digest()
    a, b = ExactICache(config, frozenset()), ExactICache(config, frozenset())
    a.access(0), a.access(16)
    b.access(16), b.access(0)
    assert a.digest() != b.digest()


def test_icache_join_keeps_only_common_blocks_at_worst_recency():
    config = CacheConfig(size_bytes=4096, assoc=4, block_bytes=64)
    footprint = orderfree_sets((b * 16 << 6 for b in (1, 2, 3, 4)), config)
    for free in (frozenset(), footprint):
        a, b = ExactICache(config, free), ExactICache(config, free)
        for block in (1, 2, 3):
            a.access(block * 16)  # set 0 of 16, four lines at most
        for block in (2, 3, 4):
            b.access(block * 16)
        a.join(b)
        assert _resident(a) == {2 * 16, 3 * 16}


class _PerSetICache:
    """Reference LRU model in per-set canonical form: every set an
    MRU-first tuple, digested as sorted ``(index, frozenset or MRU
    tuple)`` pairs, a frozenset where the set is order-free."""

    def __init__(self, config, orderfree):
        self.num_sets, self.assoc = config.num_sets, config.assoc
        self.orderfree = orderfree
        self.sets = {}

    def access(self, block):
        index = block % self.num_sets
        way = self.sets.get(index, ())
        if block in way:
            self.sets[index] = (block,) + tuple(b for b in way if b != block)
            return True
        self.sets[index] = ((block,) + way)[: self.assoc]
        return False

    def join(self, other):
        for index in list(self.sets):
            mine, theirs = self.sets[index], other.sets.get(index, ())
            common = [b for b in mine if b in theirs]
            if not common:
                del self.sets[index]
                continue
            common.sort(key=lambda b: max(mine.index(b), theirs.index(b)))
            self.sets[index] = tuple(common)

    def digest(self):
        return tuple(
            (index, frozenset(way) if index in self.orderfree else way)
            for index, way in sorted(self.sets.items())
        )


def _footprint(config, sizes):
    """Per set ``k``, ``sizes[k]`` distinct lines mapping to it."""
    return [
        [k + config.num_sets * j for j in range(size)]
        for k, size in enumerate(sizes)
    ]


@pytest.mark.parametrize("config, sizes", [
    # Table 1 geometry: order-free sets below and at the associativity,
    # one overflowing set.
    (CacheConfig(), (2, 4, 6)),
    # A small cache where most of the footprint overflows.
    (CacheConfig(size_bytes=768, assoc=2, block_bytes=64), (1, 2, 3, 4)),
], ids=["table1", "small"])
def test_icache_digest_equality_is_the_per_set_relation(config, sizes):
    """On random access streams (with joins), two caches have equal
    digests exactly when their per-set canonical digests were equal, and
    each access hits or misses as in the per-set form."""
    per_set = _footprint(config, sizes)
    universe = [block for lines in per_set for block in lines]
    free = orderfree_sets((b << config.block_shift for b in universe), config)
    assert free == {k for k, n in enumerate(sizes) if n <= config.assoc}
    rng = random.Random(11)
    equal = reordered = 0
    for _ in range(40):
        caches, streams = [], []
        for _ in range(30):
            new = ExactICache(config, free)
            old = _PerSetICache(config, free)
            reorder = streams and rng.random() < 0.5
            if reorder:
                # An earlier stream in another order: the same lines,
                # their recency differing.
                stream = rng.choice(streams)
                stream = rng.sample(stream, k=len(stream))
            else:
                # Mostly lines of one set, so recency orders differ.
                lines = rng.choice(per_set)
                lines = rng.sample(lines, min(len(lines), rng.randrange(1, 5)))
                stream = [rng.choice(lines + [rng.choice(universe)])
                          for _ in range(8)]
            streams.append(stream)
            for block in stream:
                if caches and not reorder and rng.random() < 0.05:
                    other_new, other_old = rng.choice(caches)
                    new.join(other_new)
                    old.join(other_old)
                assert new.access(block) == old.access(block)
            caches.append((new, old))
        for i, (a_new, a_old) in enumerate(caches):
            for b_new, b_old in caches[:i]:
                same = a_old.digest() == b_old.digest()
                assert (a_new.digest() == b_new.digest()) == same
                equal += same
                reordered += same and a_old.sets != b_old.sets
    # The streams are short over a small footprint, so equal digests --
    # also of caches holding order-free lines in different orders --
    # are common, and the equivalence is not checked vacuously.
    assert equal > 500 and reordered > 50


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
    relevant = register_slice(frozenset({("i", 8), ("m", 0)}))
    assert relevant == ((8,), ())
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


#: MC results at 1 GHz: the per-sub-task cycles and (steps, merges,
#: value_collapses, widenings).  How the engine steps blocks and keys its
#: states is free to change; every one of these numbers is not.
MC_PINS = {
    ("adpcm", "tiny"): (
        [2181, 2100, 2002, 1997, 1619, 1619, 1619, 1730],
        (156312, 3179, 51, 0),
    ),
    ("cnt", "tiny"): ([1515, 1299, 1299, 1299, 1538], (4507, 100, 0, 0)),
    ("fft", "tiny"): (
        [3260, 3862, 3698, 3725, 3596, 3575, 797, 693, 797, 707],
        (28877, 62, 0, 0),
    ),
    ("lms", "tiny"): (
        [2483, 2225, 1419, 1423, 1420, 1522, 1419, 1423, 1420, 1533],
        (7631, 0, 0, 0),
    ),
    ("mm", "tiny"): (
        [5916, 5809, 5809, 5809, 5809, 5809, 5809, 5809, 5809, 5820],
        (36123, 0, 0, 0),
    ),
    ("srt", "tiny"): (
        [3059, 2707, 2463, 2219, 1975, 1731, 1487, 1243, 999, 729],
        (24275, 342, 0, 0),
    ),
    ("crc", "tiny"): (
        [570, 464, 465, 365, 465, 465, 465, 581], (1237, 0, 0, 0)
    ),
    ("fir", "tiny"): (
        [1408, 1203, 1303, 1303, 1302, 1297, 1203, 1414], (5948, 0, 0, 0)
    ),
    ("cnt", "default"): ([4073, 3857, 3857, 3857, 4096], (17257, 400, 0, 0)),
    ("crc", "default"): (
        [1002, 896, 897, 797, 897, 897, 897, 1013], (4501, 0, 0, 0)
    ),
}


@pytest.mark.parametrize("name, scale", list(MC_PINS))
def test_mc_results_are_pinned(name, scale):
    from repro.workloads.suite import get_workload

    engine = ModelCheckEngine(
        WCETAnalyzer(get_workload(name, scale).program)
    )
    cycles = [s.cycles for s in engine.analyze(1e9).subtasks]
    stats = engine.stats
    counters = (
        stats.steps, stats.merges, stats.value_collapses, stats.widenings
    )
    assert (cycles, counters) == MC_PINS[(name, scale)]


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

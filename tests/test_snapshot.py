"""Snapshot subsystem: capture/restore, run cache, warm-up forking.

The load-bearing guarantees, each differentially tested against a cold
simulation (the style of ``tests/test_fastexec.py``):

* a restored runtime is bit-identical to the one that was snapshotted —
  same state digest, and identical ``TaskRun`` output from that point on;
* Figure-4 cells forked from a shared warm-up prefix equal cold runs
  exactly (phases, cycles, counters, frequencies, mispredict flags, final
  PET state) while simulating measurably fewer instances;
* the run-level result cache returns ``==`` results on a hit, is keyed on
  every input (program, config, DVS table, flush set, format version),
  and honors ``REPRO_NO_CACHE``.
"""

import dataclasses
import json

import pytest

from repro.experiments import common
from repro.experiments.common import flush_set, flush_window_start, run_pair
from repro.snapshot import runcache, warmup
from repro.snapshot.state import (
    FORMAT_VERSION,
    canonical_json,
    program_digest,
    snapshot_digest,
)
from repro.visa import runtime as rtmod
from repro.visa.dvs import DVSTable
from repro.visa.runtime import (
    RuntimeConfig,
    SimpleFixedRuntime,
    VISARuntime,
)

INSTANCES = 12
WARM = flush_window_start(INSTANCES)  # = 6 at this scale


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """Isolated cache directory + clean in-process state."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    runcache.clear_memory()
    runcache.reset_stats()
    yield tmp_path
    runcache.clear_memory()
    runcache.reset_stats()


@pytest.fixture
def no_cache(cache_env, monkeypatch):
    """Disk caches off: every simulation below is real."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    yield cache_env


def _prep():
    return common.setup("cnt", "tiny")


def _make(kind, prep, config, table):
    cls = VISARuntime if kind == "visa" else SimpleFixedRuntime
    return cls(
        prep.workload, config, table=table, dcache_bounds=prep.dcache_bounds
    )


class TestStateRoundTrip:
    @pytest.mark.parametrize("kind", ["visa", "simple"])
    def test_restore_reproduces_digest_and_future(self, no_cache, kind):
        prep = _prep()
        config = RuntimeConfig(
            deadline=prep.deadline_tight, instances=INSTANCES, ovhd=common.OVHD
        )
        table = DVSTable.xscale()

        original = _make(kind, prep, config, table)
        warm_runs = original.run_span(0, WARM)
        snap = original.snapshot_state()
        # The payload is JSON-able and digest-stable through a round-trip.
        wire = json.loads(canonical_json(snap))
        assert snapshot_digest(wire) == snapshot_digest(snap)

        restored = _make(kind, prep, config, table)
        restored.restore_state(wire)
        assert snapshot_digest(restored.snapshot_state()) == \
            snapshot_digest(snap)

        # Both continue identically — and match a cold full run.
        flush = flush_set(INSTANCES, 0.3)
        tail_a = original.run_span(WARM, INSTANCES, flush)
        tail_b = restored.run_span(WARM, INSTANCES, flush)
        assert tail_a == tail_b
        cold = _make(kind, prep, config, table).run(flush_instances=flush)
        assert warm_runs + tail_b == cold
        assert restored.pet.dump_state() == original.pet.dump_state()
        assert snapshot_digest(restored.snapshot_state()) == \
            snapshot_digest(original.snapshot_state())

    def test_format_version_mismatch_rejected(self, no_cache):
        prep = _prep()
        config = RuntimeConfig(
            deadline=prep.deadline_tight, instances=INSTANCES, ovhd=common.OVHD
        )
        rt = _make("visa", prep, config, DVSTable.xscale())
        snap = rt.snapshot_state()
        from repro.errors import SnapshotError

        with pytest.raises(SnapshotError):
            rt.restore_state({**snap, "format": FORMAT_VERSION + 1})
        with pytest.raises(SnapshotError):
            rt.restore_state({**snap, "kind": "simple"})


class TestWarmupFork:
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.2, 0.3])
    def test_forked_cell_equals_cold_cell(self, no_cache, rate):
        prep = _prep()
        flush = flush_set(INSTANCES, rate)
        runcache.clear_memory()
        cold = run_pair(prep, prep.deadline_tight, INSTANCES,
                        flush_instances=flush)
        forked = run_pair(prep, prep.deadline_tight, INSTANCES,
                          flush_instances=flush, warm_start=WARM)
        assert forked.visa_runs == cold.visa_runs
        assert forked.simple_runs == cold.simple_runs
        assert forked.visa_rt.pet.dump_state() == \
            cold.visa_rt.pet.dump_state()
        assert snapshot_digest(forked.visa_rt.snapshot_state()) == \
            snapshot_digest(cold.visa_rt.snapshot_state())

    def test_sweep_simulates_fewer_instances(self, no_cache):
        prep = _prep()
        rates = (0.0, 0.1, 0.2, 0.3)

        def sweep(warm_start):
            rtmod.SIM_COUNTS.clear()
            runcache.clear_memory()
            rows = [
                run_pair(prep, prep.deadline_tight, INSTANCES,
                         flush_instances=flush_set(INSTANCES, rate),
                         warm_start=warm_start)
                for rate in rates
            ]
            return dict(rtmod.SIM_COUNTS), [
                (pair.visa_runs, pair.simple_runs) for pair in rows
            ]

        cold_counts, cold_rows = sweep(None)
        forked_counts, forked_rows = sweep(WARM)
        assert forked_rows == cold_rows
        # 4 rates x 12 cold = 48; forked = 6 warm-up + 4 x 6 tails = 30.
        assert cold_counts["visa"] == len(rates) * INSTANCES
        assert forked_counts["visa"] == WARM + len(rates) * (INSTANCES - WARM)
        reduction = 1 - forked_counts["visa"] / cold_counts["visa"]
        assert reduction >= 0.30
        assert forked_counts["simple"] == forked_counts["visa"]

    def test_prefix_not_forkable_when_flush_hits_warmup(self, no_cache):
        assert warmup.forkable({WARM}, WARM, INSTANCES)
        assert not warmup.forkable({WARM - 1}, WARM, INSTANCES)
        assert not warmup.forkable(set(), None, INSTANCES)
        assert not warmup.forkable(set(), 0, INSTANCES)
        assert not warmup.forkable(set(), INSTANCES, INSTANCES)

    def test_prefix_persists_on_disk(self, cache_env):
        prep = _prep()
        run_pair(prep, prep.deadline_tight, INSTANCES, warm_start=WARM)
        assert list(cache_env.glob("warmup-cnt-*.json"))
        # A fresh process (simulated by dropping in-memory state) reuses it.
        runcache.clear_memory()
        runcache.reset_stats()
        rtmod.SIM_COUNTS.clear()
        run_pair(prep, prep.deadline_tight, INSTANCES,
                 flush_instances=flush_set(INSTANCES, 0.3), warm_start=WARM)
        assert runcache.STATS["warmup_hits"] == 2  # visa + simple
        assert runcache.STATS["warmup_memo_hits"] == 0
        assert rtmod.SIM_COUNTS["visa"] == INSTANCES - WARM


class TestRunCache:
    def test_hit_returns_equal_runs_without_simulating(self, cache_env):
        prep = _prep()
        first = run_pair(prep, prep.deadline_tight, INSTANCES)
        assert first.visa_rt is not None
        rtmod.SIM_COUNTS.clear()
        runcache.reset_stats()
        second = run_pair(prep, prep.deadline_tight, INSTANCES)
        assert runcache.STATS["run_hits"] == 2
        assert dict(rtmod.SIM_COUNTS) == {}  # nothing simulated
        assert second.visa_rt is None and second.simple_rt is None
        assert second.visa_runs == first.visa_runs
        assert second.simple_runs == first.simple_runs
        assert second.savings(standby=False) == first.savings(standby=False)

    def test_no_cache_env_bypasses(self, no_cache):
        prep = _prep()
        run_pair(prep, prep.deadline_tight, INSTANCES)
        assert not list(no_cache.glob("run-*.json"))
        rtmod.SIM_COUNTS.clear()
        again = run_pair(prep, prep.deadline_tight, INSTANCES)
        assert rtmod.SIM_COUNTS["visa"] == INSTANCES  # simulated again
        assert again.visa_rt is not None

    def test_key_covers_every_input(self):
        prep = _prep()
        program = prep.workload.program
        config = RuntimeConfig(
            deadline=prep.deadline_tight, instances=INSTANCES, ovhd=common.OVHD
        )
        table = DVSTable.xscale()
        base = runcache.run_key("visa", program, config, table)
        assert base == runcache.run_key("visa", program, config, table)
        variants = [
            runcache.run_key("simple", program, config, table),
            runcache.run_key(
                "visa", program,
                dataclasses.replace(config, instances=INSTANCES + 1),
                table,
            ),
            runcache.run_key("visa", program, config, table.scaled(1.2)),
            runcache.run_key("visa", program, config, table, {3}),
            runcache.run_key("visa", program, config, table,
                             extra={"dcache_bounds": [9]}),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_program_digest_tracks_format_version(self, monkeypatch):
        prep = _prep()
        before = program_digest(prep.workload.program)
        monkeypatch.setattr(
            "repro.snapshot.state.FORMAT_VERSION", FORMAT_VERSION + 1
        )
        assert program_digest(prep.workload.program) != before

    def test_corrupt_entry_recomputes(self, cache_env):
        prep = _prep()
        first = run_pair(prep, prep.deadline_tight, INSTANCES)
        for path in cache_env.glob("run-cnt-*.json"):
            path.write_text("{not json")
        again = run_pair(prep, prep.deadline_tight, INSTANCES)
        assert again.visa_rt is not None  # simulated, not served
        assert again.visa_runs == first.visa_runs

    def test_serialize_runs_round_trip(self, no_cache):
        prep = _prep()
        pair = run_pair(prep, prep.deadline_tight, INSTANCES,
                        flush_instances=flush_set(INSTANCES, 0.3))
        for runs in (pair.visa_runs, pair.simple_runs):
            wire = json.loads(canonical_json(runcache.serialize_runs(runs)))
            assert runcache.deserialize_runs(wire) == runs

    def test_cache_entries_and_clear(self, cache_env):
        prep = _prep()
        run_pair(prep, prep.deadline_tight, INSTANCES)
        entries = runcache.cache_entries()
        assert entries and all(size > 0 for _, size in entries)
        sizes = [size for _, size in entries]
        assert sizes == sorted(sizes, reverse=True)
        removed, freed = runcache.clear_cache()
        assert removed == len(entries)
        assert freed == sum(sizes)
        assert runcache.cache_entries() == []

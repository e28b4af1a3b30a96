"""Simulator throughput benchmark: simulated instructions/second.

Measures the fast path (``run``: generated block code) and the reference
loops (``run_reference``) on both cores, one tiny figure2 experiment cell, and
the run-level result cache + warm-up prefix forking (cold vs. cached cell
wall-clock; cold vs. forked simulated-instance counts), and writes
``BENCH_speed.json`` at the repository root.  The JSON records the
pre-specialization baseline throughput (measured on this host before the
fast path landed) so the speedup the PR claims stays checkable, plus the
effective worker count (``REPRO_JOBS``) and per-phase wall times.

Usage::

    PYTHONPATH=src python benchmarks/bench_speed.py          # full run
    PYTHONPATH=src python benchmarks/bench_speed.py --smoke  # CI-sized

This is a plain script, not a pytest-benchmark module (the ``bench_*``
pytest modules regenerate paper tables; this one times the simulator
itself).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Throughput of the interpreter before this PR's fast path (same host
#: class, ``cnt`` @ tiny, measured at the pre-PR commit).  The acceptance
#: bar is >= 3x on the in-order core relative to this.
BASELINE = {
    "inorder": {"inst_per_s": 148_059, "cyc_per_s": 312_960},
    "ooo": {"inst_per_s": 231_726, "cyc_per_s": 296_750},
}

#: ``measured.<core>.fast`` throughput before the block JIT landed (same
#: host class, ``cnt`` @ tiny, measured at the pre-blockjit commit).  The
#: acceptance bar is >= 2x on the in-order core relative to this.
BASELINE_PRE_JIT = {
    "inorder": {"inst_per_s": 1_078_901},
    "ooo": {"inst_per_s": 616_141},
}

#: Complex-core block-tier throughput floor (``cnt`` @ tiny): the
#: block tier of the retired per-cycle-scan OOO scheduler, recorded on
#: the measurement host when the event-driven engine landed.  The
#: event engine, now the only one, must never regress below it.
BASELINE_OOO_BLOCK = {"block": {"inst_per_s": 853_793}}


def _host_section() -> dict:
    """Per-section host facts: CPUs and effective workers.

    Recorded in *every* measured section (not just once at top level) so
    a section copied out of the JSON stays self-describing.
    """
    from repro.experiments.parallel import default_jobs

    return {
        "cpus": os.cpu_count(),
        "effective_workers": default_jobs(),
    }


def _measure_core(
    core_kind: str,
    method: str,
    min_seconds: float,
    warmup_runs: int = 0,
) -> dict:
    """Simulated inst/s and cyc/s for repeated warm task instances.

    ``method`` is ``"run"`` (a full run: block code) or
    ``"run_reference"``.  ``warmup_runs`` instances run before the clock
    starts, so one-time codegen is not charged to steady-state
    throughput.
    """
    from repro.pipelines.inorder import InOrderCore
    from repro.pipelines.ooo.core import ComplexCore
    from repro.visa.spec import VISASpec
    from repro.workloads import get_workload

    workload = get_workload("cnt", "tiny")
    program = workload.program
    machine = VISASpec().machine(program)
    core_cls = InOrderCore if core_kind == "inorder" else ComplexCore
    core = core_cls(machine, freq_hz=1e9)
    run = getattr(core, method)

    def one_instance(seed: int) -> tuple[int, int]:
        inputs = workload.generate_inputs(seed)
        workload.apply_inputs(machine, inputs)
        core.state.pc = program.entry
        core.state.halted = False
        if hasattr(core, "drain"):
            core.drain()
        c0, i0 = core.state.now, core.state.instret
        result = run()
        assert result.reason == "halt"
        return core.state.instret - i0, result.end_cycle - c0

    instructions = cycles = 0
    seed = 0
    for _ in range(warmup_runs):
        one_instance(seed)
        seed += 1
    measured = 0
    start = time.perf_counter()
    while True:
        di, dc = one_instance(seed)
        instructions += di
        cycles += dc
        seed += 1
        measured += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            break
    return {
        "inst_per_s": round(instructions / elapsed),
        "cyc_per_s": round(cycles / elapsed),
        "instances": measured,
        "warmup_runs": warmup_runs,
        "wall_seconds": round(elapsed, 3),
    }


def _spread(values: list[float]) -> dict:
    """Median and range of repeated trials, in seconds."""
    import statistics

    return {
        "median": round(statistics.median(values), 4),
        "min": round(min(values), 4),
        "max": round(max(values), 4),
    }


def _measure_tiny_tables(trials: int) -> dict:
    """Cold codegen of the 16 ``tiny`` block tables (8 workloads x 2
    engines): every static block emitted, then ``compile()``d, the two
    timed apart over ``trials`` repetitions, plus the emitted source's
    lines and characters per static instruction.  Nothing is cached,
    exec'd or stored, so the numbers are the codegen layer alone."""
    from repro.isa import blockjit
    from repro.pipelines.ooo.core import ComplexCore
    from repro.visa.spec import VISASpec
    from repro.workloads.suite import (
        EXTRA_WORKLOAD_NAMES,
        WORKLOAD_NAMES,
        get_workload,
    )

    programs = []
    for name in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
        program = get_workload(name, "tiny").program
        machine = VISASpec().machine(program)
        programs.append((
            blockjit._geometry(machine),
            ComplexCore(machine).params,
            list(blockjit._walk_blocks(program)),
        ))
    section: dict = {"tables": 2 * len(programs), "trials": trials}
    for engine in ("inorder", "ooo"):
        emit_s, compile_s = [], []
        for _ in range(trials):
            sources = []
            start = time.perf_counter()
            for geom, params, blocks in programs:
                engine_params = params if engine == "ooo" else None
                for pc, insts in blocks:
                    sources.append(blockjit._emit_block(
                        engine, geom, engine_params, pc, insts
                    ))
            emit_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            for source in sources:
                compile(source, "<codegen>", "exec")
            compile_s.append(time.perf_counter() - start)
        n = sum(len(insts) for *_, blocks in programs for _, insts in blocks)
        section[engine] = {
            "blocks": len(sources),
            "instructions": n,
            "lines_per_instruction": round(
                sum(source.count("\n") for source in sources) / n, 1
            ),
            "chars_per_instruction": round(sum(map(len, sources)) / n, 1),
            "emit_seconds": _spread(emit_s),
            "compile_seconds": _spread(compile_s),
            "total_seconds": _spread(
                [e + c for e, c in zip(emit_s, compile_s)]
            ),
        }
    return section


def _measure_blockjit(min_seconds: float, trials: int) -> dict:
    """Block-JIT throughput (both cores, against the pre-JIT baseline),
    codegen-cache cold-vs-warm build times, entry size and the
    ``tracemalloc`` peak of a cold build of ``cnt``, in a throwaway
    ``REPRO_CACHE_DIR``, and the cold codegen of all 16 ``tiny`` tables
    (:func:`_measure_tiny_tables`)."""
    import shutil
    import tempfile
    import tracemalloc

    from repro.isa import blockjit
    from repro.pipelines.ooo.core import OOOParams
    from repro.visa.spec import VISASpec
    from repro.workloads import get_workload

    saved = os.environ.get("REPRO_CACHE_DIR")
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-blockjit-")
    os.environ["REPRO_CACHE_DIR"] = tmpdir
    try:
        workload = get_workload("cnt", "tiny")
        machine = VISASpec().machine(workload.program)
        section: dict = {"host": _host_section()}

        # Codegen cache: cold (compile + store) vs warm (load from disk).
        # The per-program memo is cleared between timings so the warm pass
        # actually exercises the disk path.  The traced peak comes from a
        # second cold build: tracing slows the build it measures.
        codegen = {}
        for engine, params in (("inorder", None), ("ooo", OOOParams())):
            blockjit.clear_disk_cache()
            workload.program._blockjit_tables.clear()
            start = time.perf_counter()
            blockjit.block_table(machine, engine, params)
            cold_s = time.perf_counter() - start
            entry_bytes = blockjit.disk_cache_stats()["bytes"]
            workload.program._blockjit_tables.clear()
            start = time.perf_counter()
            blockjit.block_table(machine, engine, params)
            warm_s = time.perf_counter() - start
            blockjit.clear_disk_cache()
            workload.program._blockjit_tables.clear()
            tracemalloc.start()
            blockjit.block_table(machine, engine, params)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            codegen[engine] = {
                "cold_seconds": round(cold_s, 4),
                "warm_seconds": round(warm_s, 4),
                "warm_speedup": round(cold_s / warm_s, 1),
                "entry_bytes": entry_bytes,
                "cold_peak_traced_mb": round(peak / 1e6, 1),
            }
        codegen["tiny_tables"] = _measure_tiny_tables(trials)
        section["codegen_cache"] = codegen

        for core_kind in ("inorder", "ooo"):
            jit_on = _measure_core(
                core_kind, "run", min_seconds, warmup_runs=5
            )
            base = BASELINE_PRE_JIT[core_kind]["inst_per_s"]
            section[core_kind] = {
                "jit": jit_on,
                "speedup_vs_pre_jit_baseline": round(
                    jit_on["inst_per_s"] / base, 2
                ),
            }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    return section


def _measure_ooo_event(min_seconds: float) -> dict:
    """Event-engine complex-core throughput in block code (rings,
    commit frontier, inlined predictors) and codegen-cache cold/warm
    build times, in a throwaway ``REPRO_CACHE_DIR``.  The recorded
    ``BASELINE_OOO_BLOCK`` pins the absolute block-code floor.
    """
    import shutil
    import tempfile

    from repro.isa import blockjit
    from repro.pipelines.ooo.core import OOOParams
    from repro.visa.spec import VISASpec
    from repro.workloads import get_workload

    saved = os.environ.get("REPRO_CACHE_DIR")
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-oooevent-")
    os.environ["REPRO_CACHE_DIR"] = tmpdir
    try:
        workload = get_workload("cnt", "tiny")
        program = workload.program
        machine = VISASpec().machine(program)
        section: dict = {"host": _host_section()}

        # The per-instruction dependency/resource metadata is baked into
        # the generated code and persisted with it (keyed by program
        # digest), so cold = analyze + compile + store and warm = one
        # disk load.
        program._blockjit_tables.clear()
        start = time.perf_counter()
        blockjit.block_table(machine, "ooo", OOOParams())
        cold_s = time.perf_counter() - start
        program._blockjit_tables.clear()
        start = time.perf_counter()
        blockjit.block_table(machine, "ooo", OOOParams())
        warm_s = time.perf_counter() - start
        section["codegen_cache"] = {
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s, 1),
        }

        program._blockjit_tables.clear()
        section["block"] = _measure_core(
            "ooo", "run", min_seconds, warmup_runs=5
        )
        base = BASELINE_OOO_BLOCK["block"]["inst_per_s"]
        section["block"]["vs_recorded_floor"] = round(
            section["block"]["inst_per_s"] / base, 2
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    return section


def _measure_figure2_cell(instances: int) -> dict:
    """Wall-clock for one tiny figure2 cell through the experiment path."""
    from repro.experiments.figure2 import _cell

    start = time.perf_counter()
    row = _cell(("cnt", "T", "tiny", instances))
    elapsed = time.perf_counter() - start
    return {
        "bench": row.name,
        "instances": instances,
        "wall_seconds": round(elapsed, 3),
        "savings": round(row.savings, 4),
    }


def _measure_run_cache(instances: int) -> dict:
    """Cold vs. cached cell wall-clock and cold vs. forked instance counts.

    Runs in a throwaway ``REPRO_CACHE_DIR`` so the measurement never reads
    (or pollutes) a developer's real cache.  The forked sweep disables the
    disk caches entirely (``REPRO_NO_CACHE=1``): it measures the work
    restructuring, which must stand on its own, not ride on a cache hit.
    """
    import shutil
    import tempfile

    from repro.experiments import common
    from repro.experiments.common import (
        flush_set, flush_window_start, run_pair, setup,
    )
    from repro.snapshot import warmup
    from repro.visa import runtime as rtmod

    saved = {
        k: os.environ.get(k) for k in ("REPRO_CACHE_DIR", "REPRO_NO_CACHE")
    }
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    os.environ["REPRO_CACHE_DIR"] = tmpdir
    os.environ.pop("REPRO_NO_CACHE", None)
    try:
        common.setup.cache_clear()
        prep = setup("cnt", "tiny")

        # -- whole-run memoization: identical cell, cold then cached ------
        start = time.perf_counter()
        cold = run_pair(prep, prep.deadline_tight, instances)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        cached = run_pair(prep, prep.deadline_tight, instances)
        cached_s = time.perf_counter() - start
        assert cached.visa_runs == cold.visa_runs
        assert cached.simple_runs == cold.simple_runs
        assert cached.visa_rt is None  # served from the run cache

        # -- warm-up prefix forking: figure4-style flush-rate sweep -------
        os.environ["REPRO_NO_CACHE"] = "1"
        rates = (0.0, 0.1, 0.2, 0.3)
        warm = flush_window_start(instances)

        def sweep(warm_start):
            rtmod.SIM_COUNTS.clear()
            warmup.clear_memory_cache()
            rows = [
                run_pair(
                    prep, prep.deadline_tight, instances,
                    flush_instances=flush_set(instances, rate),
                    warm_start=warm_start,
                )
                for rate in rates
            ]
            savings = [round(pair.savings(standby=False), 12) for pair in rows]
            return dict(rtmod.SIM_COUNTS), savings

        cold_counts, cold_savings = sweep(None)
        forked_counts, forked_savings = sweep(warm)
        assert forked_savings == cold_savings  # identical results either way
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        common.setup.cache_clear()

    reduction = 1 - forked_counts["visa"] / cold_counts["visa"]
    return {
        "instances": instances,
        "cold_wall_seconds": round(cold_s, 4),
        "cached_wall_seconds": round(cached_s, 4),
        "cached_speedup": round(cold_s / cached_s, 1),
        "fork_sweep_rates": list(rates),
        "cold_visa_instances": cold_counts["visa"],
        "forked_visa_instances": forked_counts["visa"],
        "forked_instance_reduction": round(reduction, 4),
        "savings_identical": forked_savings == cold_savings,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI-sized run (same measurements, lower precision)",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_speed.json"),
        help="output JSON path (default: BENCH_speed.json at repo root)",
    )
    args = parser.parse_args(argv)

    min_seconds = 0.5 if args.smoke else 4.0
    cell_instances = 4 if args.smoke else 12
    codegen_trials = 1 if args.smoke else 3

    from repro.experiments.parallel import default_jobs

    phase_seconds: dict[str, float] = {}
    report = {
        "host": {
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "jobs": {
            "repro_jobs_env": os.environ.get("REPRO_JOBS"),
            "effective_workers": default_jobs(),
        },
        "phase_wall_seconds": phase_seconds,
        "smoke": args.smoke,
        "baseline_pre_pr": BASELINE,
        "baseline_pre_jit": BASELINE_PRE_JIT,
        "baseline_ooo_block": BASELINE_OOO_BLOCK,
        "measured": {},
        "note": (
            "Process-parallel fan-out (REPRO_JOBS) is bit-identical to the "
            "serial path (tests/test_parallel.py); wall-clock speedup from "
            "it requires a multi-core host, which this measurement host "
            "(see host.cpus) may not provide."
        ),
    }
    for core_kind in ("inorder", "ooo"):
        phase_start = time.perf_counter()
        fast = _measure_core(core_kind, "run", min_seconds, warmup_runs=60)
        ref = _measure_core(core_kind, "run_reference", min_seconds)
        phase_seconds[core_kind] = round(time.perf_counter() - phase_start, 3)
        base = BASELINE[core_kind]["inst_per_s"]
        report["measured"][core_kind] = {
            "host": _host_section(),
            "fast": fast,
            "reference": ref,
            "speedup_vs_reference": round(
                fast["inst_per_s"] / ref["inst_per_s"], 2
            ),
            "speedup_vs_pre_pr_baseline": round(
                fast["inst_per_s"] / base, 2
            ),
        }
        print(
            f"{core_kind:7s}  fast {fast['inst_per_s']:>9,} inst/s  "
            f"reference {ref['inst_per_s']:>9,} inst/s  "
            f"({report['measured'][core_kind]['speedup_vs_pre_pr_baseline']}x "
            "vs pre-PR)"
        )

    phase_start = time.perf_counter()
    jit_section = _measure_blockjit(min_seconds, codegen_trials)
    phase_seconds["blockjit"] = round(time.perf_counter() - phase_start, 3)
    report["measured"]["blockjit"] = jit_section
    for core_kind in ("inorder", "ooo"):
        sec = jit_section[core_kind]
        print(
            f"blockjit {core_kind:7s}  jit {sec['jit']['inst_per_s']:>9,} "
            f"inst/s  ({sec['speedup_vs_pre_jit_baseline']}x vs pre-JIT "
            "fast)"
        )
    codegen = jit_section["codegen_cache"]
    for engine in ("inorder", "ooo"):
        times = codegen[engine]
        print(
            f"blockjit codegen {engine:7s}  cold {times['cold_seconds']:.3f}s  "
            f"warm {times['warm_seconds']:.3f}s ({times['warm_speedup']}x)  "
            f"entry {times['entry_bytes']:,} B  "
            f"cold peak {times['cold_peak_traced_mb']} MB traced"
        )
    tables = codegen["tiny_tables"]
    for engine in ("inorder", "ooo"):
        cold = tables[engine]
        print(
            f"tiny tables {engine:7s}  emit "
            f"{cold['emit_seconds']['median']:.3f}s  compile "
            f"{cold['compile_seconds']['median']:.3f}s  "
            f"({cold['lines_per_instruction']} lines, "
            f"{cold['chars_per_instruction']} chars per instruction)"
        )

    phase_start = time.perf_counter()
    event_section = _measure_ooo_event(min_seconds)
    phase_seconds["ooo_event"] = round(time.perf_counter() - phase_start, 3)
    report["measured"]["ooo_event"] = event_section
    block_inst = event_section["block"]["inst_per_s"]
    print(f"ooo_event block  {block_inst:>9,} inst/s")
    times = event_section["codegen_cache"]
    print(
        f"ooo_event codegen  cold {times['cold_seconds']:.3f}s  "
        f"warm {times['warm_seconds']:.3f}s ({times['warm_speedup']}x)"
    )

    phase_start = time.perf_counter()
    cell = _measure_figure2_cell(cell_instances)
    cell["host"] = _host_section()
    report["measured"]["figure2_cell"] = cell
    phase_seconds["figure2_cell"] = round(time.perf_counter() - phase_start, 3)
    print(
        "figure2 cell (cnt/T, %d instances): %.2fs"
        % (cell_instances, report["measured"]["figure2_cell"]["wall_seconds"])
    )

    phase_start = time.perf_counter()
    run_cache = _measure_run_cache(cell_instances)
    run_cache["host"] = _host_section()
    phase_seconds["run_cache"] = round(time.perf_counter() - phase_start, 3)
    report["measured"]["run_cache"] = run_cache
    print(
        "run cache (cnt/T, %d instances): cold %.3fs, cached %.3fs (%.0fx); "
        "fork sweep %d -> %d VISA instances (-%.1f%%)"
        % (
            cell_instances,
            run_cache["cold_wall_seconds"],
            run_cache["cached_wall_seconds"],
            run_cache["cached_speedup"],
            run_cache["cold_visa_instances"],
            run_cache["forked_visa_instances"],
            100 * run_cache["forked_instance_reduction"],
        )
    )

    out = pathlib.Path(args.out)
    # Merge over the existing report: sections owned by other benches
    # (service, cluster, wcet, ...) must survive a bench_speed run.
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged.update(report)
    out.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {out}")

    failures = []
    speedup = report["measured"]["inorder"]["speedup_vs_pre_pr_baseline"]
    if not args.smoke and speedup < 3.0:
        failures.append(f"in-order speedup {speedup}x < 3x acceptance bar")
    jit_speedup = jit_section["inorder"]["speedup_vs_pre_jit_baseline"]
    if not args.smoke and jit_speedup < 2.0:
        failures.append(
            f"blockjit in-order {jit_speedup}x < 2x pre-JIT acceptance bar"
        )
    for core_kind in ("inorder", "ooo"):
        if report["measured"][core_kind]["speedup_vs_reference"] < 1.0:
            failures.append(
                f"block code is slower than run_reference on {core_kind}"
            )
    event_inst = event_section["block"]["inst_per_s"]
    ooo_floor = BASELINE_OOO_BLOCK["block"]["inst_per_s"]
    if not args.smoke and event_inst < ooo_floor:
        failures.append(
            f"OOO block tier {event_inst:,} inst/s regresses below the "
            f"recorded floor {ooo_floor:,} inst/s"
        )
    if not args.smoke and run_cache["cached_speedup"] < 10.0:
        failures.append(
            f"cached cell only {run_cache['cached_speedup']}x faster "
            "than cold (< 10x acceptance bar)"
        )
    if run_cache["forked_instance_reduction"] < 0.30:
        failures.append(
            "forked sweep reduction "
            f"{100 * run_cache['forked_instance_reduction']:.1f}% < 30% bar"
        )
    if not run_cache["savings_identical"]:
        failures.append("forked sweep savings differ from cold sweep")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())

"""CI smoke: block code must match the reference bit for bit.

Runs every workload (all 8, tiny scale) on both pipelines through
generated block code, whole (``block``, one unbudgeted ``run()``), in
fixed 97-instruction segments (``bounded``, where most segments end
inside a block and run a truncated copy of it), and whole with the
watchdog armed to expire halfway through the run (``armed``, so every
run ends in a watchdog exit from inside a block), and digests the
complete observable outcome: every segment's run result, final
registers, memory image, console output (with cycle stamps), event
counters, and cache statistics.  The baseline is each core's
``run_reference`` (the original ``semantics.execute``-based loop, an
independent formulation of the same timing model) driven the same way,
so the complex core's event-driven engine is checked end to end against
it on every path.
Any digest mismatch is a miscompilation and exits nonzero::

    PYTHONPATH=src python benchmarks/jit_parity_smoke.py
    PYTHONPATH=src python benchmarks/jit_parity_smoke.py --warm

The second invocation reuses the first one's codegen cache: ``--warm``
also fails unless every block table loaded from its disk entry, so the
warm loader is checked against ``run_reference`` the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Seeded instances digested per workload/pipeline/path.  The runs share
#: one block table, so the later ones execute on warm, already-compiled
#: block code (including blocks compiled on demand at dynamic targets).
RUNS = 3

#: Segment budget of the ``bounded`` path.
SEGMENT = 97

#: Checked paths: name -> segment budget (``None``: one whole run).
PATHS = {"block": None, "bounded": SEGMENT, "armed": None}

#: Where the ``armed`` path's watchdog expires, as a fraction of the
#: run's cycle count on the ``block`` path's reference run.
ARMED_AT = 0.5


def _digest(core, machine, segments) -> str:
    blob = repr((
        segments,
        list(core.state.int_regs),
        list(core.state.fp_regs),
        core.state.pc,
        core.state.now,
        core.state.instret,
        sorted(core.state.counters.items()),
        sorted(machine.memory.snapshot().items()),
        list(machine.mmio.console),
        (machine.icache.stats.hits, machine.icache.stats.misses),
        (machine.dcache.stats.hits, machine.dcache.stats.misses),
    ))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _arm(machine, expiry: int) -> None:
    """Arm the watchdog to expire ``expiry`` cycles into the run, with
    exceptions unmasked (as the VISA runtime runs complex mode).  The
    sub-task 0 prologue of an instrumented program re-arms it from
    ``__visa_incr[0]``, so that increment is set to ``expiry`` too (the
    later ones stay 0)."""
    from repro.isa import layout

    mmio = machine.mmio
    mmio.exceptions_masked = False
    mmio.watchdog_set(expiry, 0)
    mmio.watchdog_ctrl(1, 0)
    program = machine.program
    if program.subtask_marks:
        incr = program.address_of(layout.VISA_INCR_SYMBOL)
        machine.write_data_words(incr, [expiry])


def _run(core, method: str, budget: int | None) -> list[tuple]:
    """Drive ``core`` with ``method`` to the end, ``budget`` instructions
    per segment; every segment's result, in order."""
    run = getattr(core, method)
    segments = []
    while True:
        result = run(max_instructions=budget)
        segments.append((
            result.reason,
            result.start_cycle,
            result.end_cycle,
            result.instructions,
            result.exception_cycle,
        ))
        if result.reason != "limit":
            return segments


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--warm", action="store_true",
        help="also require every block table to load from the disk cache",
    )
    args = parser.parse_args(argv)

    from repro.isa import blockjit
    from repro.memory.machine import Machine
    from repro.pipelines.inorder import InOrderCore
    from repro.pipelines.ooo.core import ComplexCore
    from repro.workloads.suite import (
        EXTRA_WORKLOAD_NAMES,
        WORKLOAD_NAMES,
        get_workload,
    )

    failures = 0
    for name in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
        workload = get_workload(name, "tiny")
        seeds = list(range(RUNS)) if workload.inputs else [None]
        for label, core_cls in (("inorder", InOrderCore), ("ooo", ComplexCore)):
            shown = []
            ok = True
            # Per seed: the block path's reference cycle count.
            cycles: dict[int | None, int] = {}
            for path, budget in PATHS.items():
                digests: dict[str, tuple[str, ...]] = {}
                for method in ("run_reference", "run"):
                    per_run = []
                    for seed in seeds:
                        machine = Machine(workload.program)
                        if seed is not None:
                            inputs = workload.generate_inputs(seed=seed)
                            workload.apply_inputs(machine, inputs)
                        if path == "armed":
                            _arm(machine, int(cycles[seed] * ARMED_AT))
                        core = core_cls(machine)
                        segments = _run(core, method, budget)
                        per_run.append(_digest(core, machine, segments))
                        if path == "block" and method == "run_reference":
                            cycles[seed] = core.state.now
                        if path == "armed" and segments[-1][0] != "watchdog":
                            print(f"{name} {label}: armed {method} ended in "
                                  f"{segments[-1][0]!r}, not a watchdog exit")
                            ok = False
                    digests[method] = tuple(per_run)
                ok = ok and digests["run"] == digests["run_reference"]
                shown.append(
                    f"{path} {digests['run'][-1]}/"
                    f"{digests['run_reference'][-1]}"
                )
            status = "ok" if ok else "MISMATCH"
            print(f"{name:6s} {label:7s}  {'  '.join(shown)}  {status}")
            failures += 0 if ok else 1
    codegen = blockjit.disk_cache_stats()
    print(
        f"codegen cache: {codegen['hits']} disk hits, "
        f"{codegen['misses']} misses, {codegen['stores']} stores"
    )
    if args.warm and (codegen["misses"] or not codegen["hits"]):
        print("FAIL: --warm run rebuilt block tables", file=sys.stderr)
        failures += 1
    if failures:
        print(f"FAIL: {failures} failure(s)", file=sys.stderr)
        return 1
    paths = "/".join(PATHS)
    print(f"all workloads bit-identical to run_reference on: {paths}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())

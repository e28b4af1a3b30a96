"""CI smoke: every JIT tier must match the reference simulators bit for bit.

Runs every workload (all 8, tiny scale) on both pipelines under each
execution tier — per-instruction interpreter (``off``), basic-block
compiler (``block``), and superblock/trace compiler (``trace``) — and
digests the complete observable outcome: run result, final registers,
memory image, console output (with cycle stamps), event counters, and
cache statistics.  The baseline is each core's ``run_reference`` (the
original ``semantics.execute``-based loop, an independent formulation
of the same timing model), so the complex core's event-driven engine is
checked end to end against it on every tier.  Each workload runs three
seeded instances per tier so the trace tier's hot-count profiling
actually crosses its threshold and installs superblocks mid-matrix.
Any digest mismatch is a miscompilation and exits nonzero.

``REPRO_JIT_TIER`` narrows the matrix to the ``off`` tier plus one
candidate tier so CI can shard the tiers across jobs::

    PYTHONPATH=src python benchmarks/jit_parity_smoke.py          # all tiers
    REPRO_JIT_TIER=trace PYTHONPATH=src python benchmarks/jit_parity_smoke.py
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Seeded instances digested per workload/pipeline/tier.  Three runs on
#: one shared block table push loop heads past the trace-tier hotness
#: threshold, so the later runs execute through installed superblocks.
RUNS = 3


def _digest(core, machine, result) -> str:
    blob = repr((
        result.reason,
        result.start_cycle,
        result.end_cycle,
        result.instructions,
        result.exception_cycle,
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


def main() -> int:
    from repro.isa import blockjit
    from repro.memory.machine import Machine
    from repro.pipelines.inorder import InOrderCore
    from repro.pipelines.ooo.core import ComplexCore
    from repro.workloads.suite import (
        EXTRA_WORKLOAD_NAMES,
        WORKLOAD_NAMES,
        get_workload,
    )

    env_tier = os.environ.get("REPRO_JIT_TIER", "").strip().lower()
    if env_tier:
        if env_tier not in blockjit.TIERS:
            print(f"unknown REPRO_JIT_TIER {env_tier!r}", file=sys.stderr)
            return 2
        candidates = list(dict.fromkeys(["off", env_tier]))
    else:
        candidates = list(blockjit.TIERS)

    failures = 0
    for name in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
        workload = get_workload(name, "tiny")
        seeds = list(range(RUNS)) if workload.inputs else [None]
        for label, core_cls in (("inorder", InOrderCore), ("ooo", ComplexCore)):
            digests: dict[str, tuple[str, ...]] = {}
            for tier in ["reference", *candidates]:
                per_run = []
                for seed in seeds:
                    machine = Machine(workload.program)
                    if seed is not None:
                        inputs = workload.generate_inputs(seed=seed)
                        workload.apply_inputs(machine, inputs)
                    core = core_cls(machine)
                    if tier == "reference":
                        result = core.run_reference()
                    else:
                        with blockjit.tier_override(tier):
                            result = core.run()
                    per_run.append(_digest(core, machine, result))
                digests[tier] = tuple(per_run)
            ok = all(digests[t] == digests["reference"] for t in candidates)
            status = "ok" if ok else "MISMATCH"
            shown = " ".join(
                f"{t} {digests[t][-1]}" for t in ["reference", *candidates]
            )
            print(f"{name:6s} {label:7s}  {shown}  {status}")
            failures += 0 if ok else 1
    if failures:
        print(f"FAIL: {failures} tier digest mismatch(es)", file=sys.stderr)
        return 1
    tiers = "/".join(candidates)
    print(f"all workloads bit-identical to run_reference on tiers: {tiers}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())

"""sim-cells: a closed loop of Figure 2-4-style VISA/simple-fixed cells.

Each op is one ``run_pair`` at ``tiny`` scale with 12 instances (one EQ 4
re-evaluation per cell), a seeded deadline of tight x U(1.0, 1.6) and a
flush rate from {0, 0.1, 0.2, 0.3}, warm-up forked like Figure 4.  Every
cell is a run-cache miss that simulates both cores and writes its entry.
Ops come in rounds: each round runs all eight C-lab programs once in a
seeded order, so every run has the same program mix.
"""

from __future__ import annotations

import random
import time

from harness import (
    CONFIG, Expected, Op, Outcome, Probe, digest, self_rss_mb,
)
from spans import Tracer

PROGRAMS = ("adpcm", "cnt", "fft", "lms", "mm", "srt", "crc", "fir")
INSTANCES = 12
FLUSH_RATES = (0.0, 0.1, 0.2, 0.3)
SIM_KINDS = ("spec", "recovery")


def op_list(seed: int, rounds: int) -> list[tuple[str, float, float]]:
    """``(program, deadline factor, flush rate)`` per cell; prefix-stable."""
    rng = random.Random(f"sim-cells:{seed}")
    cells: list[tuple[str, float, float]] = []
    seen: set[tuple[str, float, float]] = set()
    for _ in range(rounds):
        for program in rng.sample(PROGRAMS, len(PROGRAMS)):
            while True:
                cell = (
                    program,
                    round(rng.uniform(1.0, 1.6), 4),
                    rng.choice(FLUSH_RATES),
                )
                if cell not in seen:
                    break
            seen.add(cell)
            cells.append(cell)
    return cells


def _runs_view(runs) -> list:
    return [
        [
            r.index, r.mispredicted, repr(r.completion_seconds),
            r.f_spec.freq_hz, r.f_rec.freq_hz,
            [[p.kind, p.mode, p.freq_hz, p.cycles] for p in r.phases],
        ]
        for r in runs
    ]


def sim_cycles(runs) -> int:
    return sum(p.cycles for r in runs for p in r.phases if p.kind in SIM_KINDS)


def probe_cpus() -> tuple[None]:
    """In-process: the probe follows the thread wherever it runs."""
    return (None,)


def run(seed: int, seconds: float, probe: Probe, tracer: Tracer,
        expected: Expected) -> Outcome:
    from repro.errors import ReproError
    from repro.experiments.common import (
        flush_set, flush_window_start, run_pair, setup,
    )
    from repro.isa import blockjit
    from repro.pipelines.ooo.core import ComplexCore
    from repro.visa.spec import VISASpec
    from repro.workloads import get_workload

    conf = CONFIG["workloads"]["sim-cells"]
    # At least two rounds, so the traced run times every program both ways.
    rounds = max(2, round(seconds / conf["round_ref_s"]))
    cells = op_list(seed, rounds)
    # Set-up, once per program: compile, D-cache calibration and the WCET
    # analyses behind the deadlines, then cold codegen of both cores.
    setup_samples = []
    preps = {}
    spec = VISASpec()
    tracer.record(True)
    with tracer.span("setup"):
        for name in PROGRAMS:
            t0 = time.perf_counter()
            prep = setup(name, "tiny")
            machine = spec.machine(get_workload(name, "tiny").program)
            blockjit.block_table(machine, "inorder")
            blockjit.block_table(machine, "ooo", ComplexCore(machine).params)
            setup_samples.append((t0, time.perf_counter() - t0, None))
            preps[name] = prep

    ops: list[Op] = []
    errors: list[str] = []
    total_cycles = 0
    warm_start = flush_window_start(INSTANCES)
    for index, (name, factor, rate) in enumerate(cells):
        prep = preps[name]
        key = f"{name}:{factor:.4f}:{rate}"
        # Whole rounds alternate, so each program is timed both ways.
        traced = (index // len(PROGRAMS)) % 2 == 0
        tracer.record(traced)
        ok = True
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                pair = run_pair(
                    prep, prep.deadline_tight * factor, INSTANCES,
                    flush_set(INSTANCES, rate), warm_start=warm_start,
                )
                savings = pair.savings(standby=False)
        except ReproError as exc:  # DeadlineMissError included
            latency = time.perf_counter() - t0
            errors.append(f"{key}: {exc}")
            ops.append(Op(key, name, t0, latency, False, traced))
            continue
        latency = time.perf_counter() - t0
        runs = pair.visa_runs + pair.simple_runs
        cycles = sim_cycles(runs)
        total_cycles += cycles
        if not all(r.deadline_met for r in runs):
            ok = False
            errors.append(f"{key}: deadline missed")
        view = {
            "visa": _runs_view(pair.visa_runs),
            "simple": _runs_view(pair.simple_runs),
            "savings": repr(savings),
            "cycles": cycles,
        }
        problem = expected.check(key, digest(view))
        if problem:
            ok = False
            errors.append(problem)
        ops.append(Op(key, name, t0, latency, ok, traced))
    tracer.record(False)

    problem = expected.check(f"total_cycles:{len(ops)}", str(total_cycles))
    if problem:
        errors.append(problem)
    busy = sum(probe.norm(op.start, op.latency_s) for op in ops)
    return Outcome(
        ops=ops,
        setup_samples=setup_samples,
        rss_mb=self_rss_mb(),
        tail_q=conf["tail_q"],
        layers={
            "sim.total_cycles": total_cycles,
            "sim.mcyc_per_s": total_cycles / 1e6 / busy,
        },
        errors=errors,
    )

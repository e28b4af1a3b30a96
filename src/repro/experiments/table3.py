"""Table 3: benchmark characteristics and timing-analysis results (§5.3, §6.1).

Per benchmark: dynamic instruction count for one task, sub-task count,
tight/loose deadlines, WCET bound at 1 GHz, actual execution time on
``simple-fixed`` and on the complex processor at 1 GHz, and the two ratios
the paper discusses: WCET/simple (analyzer tightness; ~1 for most
benchmarks, ~2 for srt) and simple/complex (the ILP speedup the VISA
framework harvests; 3-6x in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    Setup,
    default_scale,
    format_table,
    setup,
    shapes_checked,
)
from repro.experiments.parallel import parallel_map
from repro.pipelines.inorder import InOrderCore
from repro.pipelines.ooo.core import ComplexCore
from repro.visa.spec import VISASpec
from repro.workloads import WORKLOAD_NAMES


@dataclass
class Table3Row:
    name: str
    dyn_instructions: int
    subtasks: int
    deadline_tight_us: float
    deadline_loose_us: float
    wcet_us: float
    actual_simple_us: float
    actual_complex_us: float

    @property
    def wcet_over_simple(self) -> float:
        return self.wcet_us / self.actual_simple_us

    @property
    def simple_over_complex(self) -> float:
        return self.actual_simple_us / self.actual_complex_us


def measure_actual(prep: Setup, core_kind: str, freq_hz: float = 1e9) -> tuple[int, int]:
    """(cycles, instructions) for one steady-state task execution.

    The paper models periodic tasks executed 200 times in a row; the
    representative "actual time for 1 task" is therefore a warm execution
    (we run two instances and report the second).
    """
    spec = VISASpec()
    program = prep.workload.program
    machine = spec.machine(program)
    if core_kind == "simple":
        core = InOrderCore(machine, freq_hz=freq_hz)
    else:
        core = ComplexCore(machine, freq_hz=freq_hz)
    cycles = instructions = 0
    for seed in (0, 1):
        inputs = prep.workload.generate_inputs(seed)
        prep.workload.apply_inputs(machine, inputs)
        core.state.pc = program.entry
        core.state.halted = False
        if hasattr(core, "drain"):
            core.drain()
        start_cycle, start_instr = core.state.now, core.state.instret
        result = core.run()
        assert result.reason == "halt"
        prep.workload.check_outputs(machine, inputs)
        cycles = result.end_cycle - start_cycle
        instructions = core.state.instret - start_instr
    return cycles, instructions


def _cell(args: tuple[str, str]) -> Table3Row:
    """One benchmark's row; runs in a worker process."""
    name, scale = args
    prep = setup(name, scale)
    simple_cycles, instructions = measure_actual(prep, "simple")
    complex_cycles, _ = measure_actual(prep, "complex")
    return Table3Row(
        name=name,
        dyn_instructions=instructions,
        subtasks=prep.workload.subtasks,
        deadline_tight_us=prep.deadline_tight * 1e6,
        deadline_loose_us=prep.deadline_loose * 1e6,
        wcet_us=prep.wcet_1ghz_seconds * 1e6,
        actual_simple_us=simple_cycles / 1e3,
        actual_complex_us=complex_cycles / 1e3,
    )


def run(
    scale: str | None = None,
    jobs: int | None = None,
) -> list[Table3Row]:
    """Run the experiment; returns one row per benchmark."""
    scale = scale or default_scale()
    return parallel_map(
        _cell, [(name, scale) for name in WORKLOAD_NAMES], jobs
    )


def render(rows: list[Table3Row]) -> str:
    """Render the measured rows as an aligned text table."""
    headers = [
        "bench", "dyn.inst", "#sub", "tight(us)", "loose(us)",
        "WCET(us)", "simple(us)", "complex(us)", "WCET/simple", "simple/complex",
    ]
    body = [
        [
            r.name,
            str(r.dyn_instructions),
            str(r.subtasks),
            f"{r.deadline_tight_us:.1f}",
            f"{r.deadline_loose_us:.1f}",
            f"{r.wcet_us:.1f}",
            f"{r.actual_simple_us:.1f}",
            f"{r.actual_complex_us:.1f}",
            f"{r.wcet_over_simple:.2f}",
            f"{r.simple_over_complex:.2f}",
        ]
        for r in rows
    ]
    return format_table(headers, body)


#: Table 3's sub-task count per benchmark.
SUBTASKS = {"adpcm": 8, "cnt": 5, "fft": 10, "lms": 10, "mm": 10, "srt": 10}


def claims(rows: list[Table3Row]) -> list[str]:
    """Table 3's shapes; one message per broken claim."""
    checks = [({r.name for r in rows} == set(SUBTASKS), "not Table 3's six")]
    for r in rows:
        checks += [
            # Safety: the WCET bound covers the actual execution.
            (r.wcet_over_simple >= 1.0, f"{r.name}: WCET/simple < 1"),
            # The complex pipeline is substantially faster (paper: 3-6x;
            # our adpcm sits lower because its predictor-state chain plus
            # data-dependent quantizer branches serialize the event-driven
            # OOO model harder than SimpleScalar — see EXPERIMENTS.md).
            (r.simple_over_complex > 1.7, f"{r.name}: simple/complex <= 1.7"),
            # Deadlines bracket the WCET.
            (r.deadline_tight_us > r.wcet_us, f"{r.name}: tight <= WCET"),
            (r.deadline_loose_us > r.deadline_tight_us,
             f"{r.name}: loose <= tight deadline"),
            (r.subtasks == SUBTASKS.get(r.name),
             f"{r.name}: not Table 3's sub-task count"),
        ]
    # srt is the paper's outlier: triangular inner loop + early exit make
    # its bound ~2x; the other kernels are analyzed much more tightly.
    ratios = {r.name: r.wcet_over_simple for r in rows}
    srt = ratios.pop("srt", 0.0)
    checks.append((
        srt > max(ratios.values(), default=0.0),
        "srt's WCET/simple is not the largest",
    ))
    return [message for ok, message in checks if not ok]


def main(jobs: int | None = None) -> list[str] | None:
    """Command-line entry point: run and print the experiment; returns
    the broken claims (``None`` where ``shapes_checked()`` is false)."""
    print("Table 3 reproduction (scale=%s)" % default_scale())
    rows = run(jobs=jobs)
    print(render(rows))
    return claims(rows) if shapes_checked() else None

"""Ablations on the VISA design choices DESIGN.md calls out.

Three studies, each isolating one knob of the framework:

* **Sub-task granularity** (§2.1): how the number of checkpoints affects
  the achievable speculative frequency.  Coarse sub-tasks mean each
  checkpoint must leave room to re-run a *large* WCET from scratch; fine
  sub-tasks tighten the recovery bound but add snippet overhead.
* **PET policy** (§4.3): last-N versus histogram selection, including a
  non-zero target misprediction rate (lower speculative frequency at the
  cost of recovery-mode time).
* **Switch overhead** (§2.1's ``ovhd`` term): how expensive mode/frequency
  switches push checkpoints earlier and force higher frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import OVHD, format_table, setup
from repro.experiments.parallel import parallel_map
from repro.power.model import PowerModel
from repro.power.report import energy_of_runs
from repro.visa.runtime import RuntimeConfig, VISARuntime
from repro.visa.spec import VISASpec
from repro.wcet.dcache_pad import calibrate_dcache_bounds
from repro.workloads.clab import srt


@dataclass
class AblationRow:
    label: str
    f_spec_mhz: float
    f_rec_mhz: float
    mispredicted: int
    average_watts: float


def _steady_state(runtime: VISARuntime, instances: int) -> AblationRow:
    runs = runtime.run()
    skip = min(20, instances // 2)
    steady = runs[skip:]
    report = energy_of_runs(steady, PowerModel("complex"))
    return AblationRow(
        label="",
        f_spec_mhz=runs[-1].f_spec.freq_hz / 1e6,
        f_rec_mhz=runs[-1].f_rec.freq_hz / 1e6,
        mispredicted=sum(r.mispredicted for r in steady),
        average_watts=report.average_watts,
    )


def _granularity_cell(args: tuple[str, int, int, float]) -> AblationRow:
    scale, instances, count, deadline = args
    # Not a registry workload, so not a set-up entry: calibrate here.
    workload = srt.make(scale, subtasks=count)
    bounds = calibrate_dcache_bounds(workload)
    config = RuntimeConfig(deadline=deadline, instances=instances, ovhd=OVHD)
    runtime = VISARuntime(workload, config, dcache_bounds=bounds)
    row = _steady_state(runtime, instances)
    row.label = f"{count} sub-tasks"
    return row


def run_subtask_granularity(
    scale: str = "tiny",
    instances: int = 30,
    counts: tuple[int, ...] = (2, 5, 10),
    jobs: int | None = None,
) -> list[AblationRow]:
    """srt with varying checkpoint granularity; one shared deadline."""
    # Deadline from the canonical 10-sub-task version so variants compete
    # on equal terms.
    deadline = 1.2 * setup("srt", scale).wcet_1ghz_seconds + OVHD
    cells = [(scale, instances, count, deadline) for count in counts]
    return parallel_map(_granularity_cell, cells, jobs)


def _pet_cell(args: tuple[str, int, str, float, str, dict]) -> AblationRow:
    scale, instances, benchmark, deadline, label, overrides = args
    prep = setup(benchmark, scale)
    config = RuntimeConfig(
        deadline=deadline, instances=instances, ovhd=OVHD, **overrides
    )
    runtime = VISARuntime(
        prep.workload, config, dcache_bounds=prep.dcache_bounds
    )
    row = _steady_state(runtime, instances)
    row.label = label
    return row


def run_pet_policies(
    scale: str = "tiny",
    instances: int = 30,
    benchmark: str = "lms",
    jobs: int | None = None,
) -> list[AblationRow]:
    """last-N vs histogram PET selection (§4.3)."""
    deadline = 1.2 * setup(benchmark, scale).wcet_1ghz_seconds + OVHD
    policies = [
        ("last-10", {"pet_policy": "lastn", "pet_window": 10}),
        ("histogram 0%", {"pet_policy": "histogram", "histogram_rate": 0.0}),
        ("histogram 10%", {"pet_policy": "histogram", "histogram_rate": 0.10}),
    ]
    cells = [
        (scale, instances, benchmark, deadline, label, overrides)
        for label, overrides in policies
    ]
    return parallel_map(_pet_cell, cells, jobs)


def _overhead_cell(args: tuple[str, int, str, float]) -> AblationRow:
    scale, instances, benchmark, ovhd = args
    prep = setup(benchmark, scale)
    deadline = 1.2 * prep.wcet_1ghz_seconds + max(OVHD, ovhd)
    config = RuntimeConfig(deadline=deadline, instances=instances, ovhd=ovhd)
    runtime = VISARuntime(
        prep.workload, config, dcache_bounds=prep.dcache_bounds
    )
    row = _steady_state(runtime, instances)
    row.label = f"ovhd {ovhd * 1e6:.1f}us"
    return row


def run_switch_overhead(
    scale: str = "tiny",
    instances: int = 30,
    benchmark: str = "cnt",
    overheads: tuple[float, ...] = (0.5e-6, 2e-6, 8e-6),
    jobs: int | None = None,
) -> list[AblationRow]:
    """Sensitivity to the mode/frequency switch overhead (EQ 1's ovhd)."""
    cells = [(scale, instances, benchmark, ovhd) for ovhd in overheads]
    return parallel_map(_overhead_cell, cells, jobs)


@dataclass
class DCacheModelRow:
    bench: str
    trace_wcet_us: float
    static_wcet_us: float
    trace_safe_mhz: float
    static_safe_mhz: float


def _dcache_cell(args: tuple[str, str]) -> DCacheModelRow:
    from repro.visa.dvs import DVSTable
    from repro.visa.speculation import lowest_safe_frequency
    from repro.wcet.dcache_static import static_dcache_bounds

    name, scale = args
    prep = setup(name, scale)
    spec, program = VISASpec(), prep.workload.program
    static_bounds = static_dcache_bounds(prep.workload)
    trace_wcet = prep.wcet_1ghz_seconds
    static_wcet = spec.wcet(program, 1e9, static_bounds).total_seconds
    # A common deadline basis per benchmark.
    deadline = 1.4 * max(trace_wcet, static_wcet)

    def safe_mhz(bounds: list[int]) -> float:
        return lowest_safe_frequency(
            lambda f: spec.wcet(program, f, bounds),
            deadline, DVSTable.xscale(),
        ).freq_hz / 1e6

    return DCacheModelRow(
        bench=name,
        trace_wcet_us=trace_wcet * 1e6,
        static_wcet_us=static_wcet * 1e6,
        trace_safe_mhz=safe_mhz(prep.dcache_bounds),
        static_safe_mhz=safe_mhz(static_bounds),
    )


def run_dcache_models(
    scale: str = "tiny",
    jobs: int | None = None,
) -> list[DCacheModelRow]:
    """Trace-derived padding vs fully-static D-cache bounds (§3.3).

    Quantifies what the paper's interim trace approach buys: tighter
    bounds, hence a lower non-speculative safe frequency — against the
    static module's input-independence.
    """
    from repro.workloads import WORKLOAD_NAMES

    cells = [(name, scale) for name in WORKLOAD_NAMES]
    return parallel_map(_dcache_cell, cells, jobs)


def render_dcache(rows: list[DCacheModelRow]) -> str:
    """Render the D-cache-model comparison as a text table."""
    headers = [
        "bench", "trace WCET us", "static WCET us",
        "trace safe MHz", "static safe MHz",
    ]
    body = [
        [
            r.bench,
            f"{r.trace_wcet_us:.1f}",
            f"{r.static_wcet_us:.1f}",
            f"{r.trace_safe_mhz:.0f}",
            f"{r.static_safe_mhz:.0f}",
        ]
        for r in rows
    ]
    return format_table(headers, body)


@dataclass
class SensitivityRow:
    label: str
    savings: float


def run_power_sensitivity(
    scale: str = "tiny",
    instances: int = 40,
    benchmark: str = "lms",
) -> list[SensitivityRow]:
    """Is Figure 2 an artifact of the power constants?  Re-score one
    tight-deadline run under perturbed :class:`PowerParams` (the phases
    are already simulated; only the energy accounting changes).

    The savings come from V^2 scaling across the DVS gap the VISA
    framework opens, so they should survive large perturbations of any
    single energy constant — this ablation makes that checkable.
    """
    import dataclasses as dc

    from repro.experiments.common import run_pair
    from repro.power.model import PowerParams
    from repro.power.report import power_savings

    prep = setup(benchmark, scale)
    pair = run_pair(prep, prep.deadline_tight, instances)
    skip = min(20, instances // 2)
    visa_runs = pair.visa_runs[skip:]
    simple_runs = pair.simple_runs[skip:]

    def savings_with(params: PowerParams) -> float:
        complex_model = PowerModel("complex", params=params)
        simple_model = PowerModel("simple_fixed", params=params)
        return power_savings(
            energy_of_runs(visa_runs, complex_model).average_watts,
            energy_of_runs(simple_runs, simple_model).average_watts,
        )

    base = PowerParams()
    variants = [
        ("baseline", base),
        ("clock x2", dc.replace(base, clock_complex=6.0, clock_simple_fixed=3.0)),
        ("clock /2", dc.replace(base, clock_complex=1.5, clock_simple_fixed=0.75)),
        ("OOO structures x2", dc.replace(
            base, rename=0.6, rob=0.8, iq=1.2, lsq=1.0,
            regfile_big_read=0.5, regfile_big_write=0.6,
        )),
        ("caches x2", dc.replace(base, icache=2.4, dcache=2.4)),
        ("FUs x2", dc.replace(base, fu=1.6)),
        ("equal die clocks", dc.replace(base, clock_simple_fixed=3.0)),
    ]
    return [
        SensitivityRow(label=label, savings=savings_with(params))
        for label, params in variants
    ]


def render_sensitivity(rows: list[SensitivityRow]) -> str:
    """Render the power-sensitivity rows as a text table."""
    headers = ["power-model variant", "savings%"]
    body = [[r.label, f"{100 * r.savings:.1f}"] for r in rows]
    return format_table(headers, body)


def render(rows: list[AblationRow]) -> str:
    """Render ablation rows as an aligned text table."""
    headers = ["config", "f_spec MHz", "f_rec MHz", "missed ckpts", "avg W"]
    body = [
        [
            r.label,
            f"{r.f_spec_mhz:.0f}",
            f"{r.f_rec_mhz:.0f}",
            str(r.mispredicted),
            f"{r.average_watts:.3f}",
        ]
        for r in rows
    ]
    return format_table(headers, body)


def claims(
    subtasks: list[AblationRow],
    pet: list[AblationRow],
    overhead: list[AblationRow],
    dcache: list[DCacheModelRow],
    sensitivity: list[SensitivityRow],
) -> list[str]:
    """The five studies' design claims; one message per broken claim.
    The studies run a fixed configuration, so every scale checks them."""
    f_spec = {r.label: r.f_spec_mhz for r in subtasks + pet + overhead}
    savings = {r.label: r.savings for r in sensitivity}
    checks = [
        (len(subtasks) == 3, f"{len(subtasks)} granularity rows, not 3"),
        # Finer checkpoints tighten the recovery bound per sub-task,
        # letting the complex core speculate at the same or a lower
        # frequency.
        (f_spec["10 sub-tasks"] <= f_spec["2 sub-tasks"],
         "f_spec at 10 sub-tasks above at 2"),
        # A histogram targeting 10% mispredictions never picks a higher
        # frequency than the zero-misprediction histogram.  (Every policy
        # is deadline-safe by construction: the runtime raises otherwise.)
        (f_spec["histogram 10%"] <= f_spec["histogram 0%"],
         "f_spec of histogram 10% above histogram 0%"),
        (len(overhead) == 3, f"{len(overhead)} overhead rows, not 3"),
        # Larger switch overheads push checkpoints earlier; the
        # speculative frequency can only stay or rise.
        (overhead[0].f_spec_mhz <= overhead[-1].f_spec_mhz + 26,
         "f_spec falls over 26 MHz as ovhd grows"),
        (len(dcache) == 6, f"{len(dcache)} D-cache rows, not 6"),
        # Pricier OOO structures hurt the complex core; a pricier clock
        # hurts the (higher-frequency) simple core more.
        (savings["OOO structures x2"] < savings["baseline"],
         "OOO structures x2 does not lower the savings"),
        (savings["clock x2"] > savings["baseline"],
         "clock x2 does not raise the savings"),
    ]
    for r in dcache:
        # Static bounds are input-independent but never tighter than the
        # trace-calibrated ones, so the safe frequency can only rise.
        checks += [
            (r.static_wcet_us >= r.trace_wcet_us * 0.95,
             f"{r.bench}: static WCET under 95% of trace"),
            (r.static_safe_mhz >= r.trace_safe_mhz - 26,
             f"{r.bench}: static safe MHz over 26 below trace"),
        ]
    # The headline savings are driven by the V^2 gap the framework
    # opens, not by any single energy constant: every perturbation keeps
    # them positive.
    checks += [
        (r.savings > 0.05, f"{r.label}: savings <= 5%") for r in sensitivity
    ]
    return [message for ok, message in checks if not ok]


def main(jobs: int | None = None) -> list[str]:
    """Command-line entry point: run and print every ablation study;
    returns the broken claims."""
    subtasks = run_subtask_granularity(jobs=jobs)
    pet = run_pet_policies(jobs=jobs)
    overhead = run_switch_overhead(jobs=jobs)
    dcache = run_dcache_models(jobs=jobs)
    sensitivity = run_power_sensitivity()
    print("== Sub-task granularity (srt) ==")
    print(render(subtasks))
    print()
    print("== PET policy (lms) ==")
    print(render(pet))
    print()
    print("== Switch overhead (cnt) ==")
    print(render(overhead))
    print()
    print("== D-cache bound models ==")
    print(render_dcache(dcache))
    print()
    print("== Power-model sensitivity (lms) ==")
    print(render_sensitivity(sensitivity))
    return claims(subtasks, pet, overhead, dcache, sensitivity)

"""Figure 2: power savings of the VISA-compliant complex processor (§6.2).

For each benchmark and each deadline (tight ``T`` / loose ``L``), run both
processors for N consecutive task instances under DVS and report the
complex processor's power savings relative to ``simple-fixed``, with and
without 10 % standby power.

Expected shape (paper): large savings at tight deadlines (43-61 % without
standby power), smaller but substantial at loose deadlines (22-48 %),
larger with standby power; simple-fixed needs much higher frequencies
than the complex core throughout, and the complex core spends no time in
simple mode because PETs are accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    default_instances,
    default_scale,
    format_table,
    run_pair,
    setup,
)
from repro.experiments.parallel import parallel_map
from repro.workloads import WORKLOAD_NAMES


@dataclass
class Figure2Row:
    name: str
    deadline_kind: str  # "T" or "L"
    savings: float  # no standby power
    savings_standby: float  # with 10% standby power
    complex_mhz: float
    simple_mhz: float
    complex_mispredicted: int


def _cell(args: tuple[str, str, str, int]) -> Figure2Row:
    """One (benchmark, deadline) configuration; runs in a worker process."""
    name, kind, scale, instances = args
    prep = setup(name, scale)
    deadline = prep.deadline_tight if kind == "T" else prep.deadline_loose
    pair = run_pair(prep, deadline, instances)
    return Figure2Row(
        name=name,
        deadline_kind=kind,
        savings=pair.savings(standby=False),
        savings_standby=pair.savings(standby=True),
        complex_mhz=pair.visa_runs[-1].f_spec.freq_hz / 1e6,
        simple_mhz=pair.simple_runs[-1].f_spec.freq_hz / 1e6,
        complex_mispredicted=sum(r.mispredicted for r in pair.visa_runs),
    )


def run(
    scale: str | None = None,
    instances: int | None = None,
    jobs: int | None = None,
) -> list[Figure2Row]:
    """Run the experiment; returns one row per measured configuration."""
    scale = scale or default_scale()
    instances = instances or default_instances()
    cells = [
        (name, kind, scale, instances)
        for name in WORKLOAD_NAMES
        for kind in ("T", "L")
    ]
    return parallel_map(_cell, cells, jobs)


def render(rows: list[Figure2Row]) -> str:
    """Render the measured rows as an aligned text table."""
    headers = [
        "bench", "dl", "savings%", "savings%+standby",
        "complex MHz", "simple MHz", "cx missed ckpts",
    ]
    body = [
        [
            r.name,
            r.deadline_kind,
            f"{100 * r.savings:.1f}",
            f"{100 * r.savings_standby:.1f}",
            f"{r.complex_mhz:.0f}",
            f"{r.simple_mhz:.0f}",
            str(r.complex_mispredicted),
        ]
        for r in rows
    ]
    return format_table(headers, body)



def chart(rows: list[Figure2Row]) -> str:
    """Render the rows as a terminal bar chart."""
    from repro.experiments.plotting import hbar_chart

    bars = [
        (f"{r.name} ({r.deadline_kind})", 100 * r.savings) for r in rows
    ]
    return hbar_chart(
        bars, title="Power savings of the VISA complex core vs simple-fixed"
    )

def main(jobs: int | None = None) -> None:
    """Command-line entry point: run and print the experiment."""
    print(
        "Figure 2 reproduction (scale=%s, instances=%d)"
        % (default_scale(), default_instances())
    )
    rows = run(jobs=jobs)
    print(render(rows))
    print()
    print(chart(rows))


if __name__ == "__main__":
    main()

"""Figure 3: simple-fixed granted a 1.5x clock-frequency advantage (§6.2).

The paper acknowledges the simple processor might clock faster than the
complex one at equal voltage.  This experiment re-runs the tight-deadline
comparison with simple-fixed's DVS table scaled to 1.5x frequency at each
voltage.  Expected shape: savings shrink versus Figure 2 but remain
positive (paper: 10-38 % without standby power).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    default_instances,
    default_scale,
    format_table,
    run_pair,
    setup,
    shapes_checked,
)
from repro.experiments.parallel import parallel_map
from repro.workloads import WORKLOAD_NAMES

FREQ_ADVANTAGE = 1.5


@dataclass
class Figure3Row:
    name: str
    savings: float
    savings_standby: float
    complex_mhz: float
    simple_mhz: float


def _cell(args: tuple[str, str, int]) -> Figure3Row:
    """One benchmark's tight-deadline cell; runs in a worker process."""
    name, scale, instances = args
    prep = setup(name, scale)
    pair = run_pair(
        prep,
        prep.deadline_tight,
        instances,
        simple_freq_advantage=FREQ_ADVANTAGE,
    )
    return Figure3Row(
        name=name,
        savings=pair.savings(standby=False),
        savings_standby=pair.savings(standby=True),
        complex_mhz=pair.visa_runs[-1].f_spec.freq_hz / 1e6,
        simple_mhz=pair.simple_runs[-1].f_spec.freq_hz / 1e6,
    )


def run(
    scale: str | None = None,
    instances: int | None = None,
    jobs: int | None = None,
) -> list[Figure3Row]:
    """Run the experiment; returns one row per measured configuration."""
    scale = scale or default_scale()
    instances = instances or default_instances()
    cells = [(name, scale, instances) for name in WORKLOAD_NAMES]
    return parallel_map(_cell, cells, jobs)


def render(rows: list[Figure3Row]) -> str:
    """Render the measured rows as an aligned text table."""
    headers = ["bench", "savings%", "savings%+standby", "complex MHz", "simple MHz"]
    body = [
        [
            r.name,
            f"{100 * r.savings:.1f}",
            f"{100 * r.savings_standby:.1f}",
            f"{r.complex_mhz:.0f}",
            f"{r.simple_mhz:.0f}",
        ]
        for r in rows
    ]
    return format_table(headers, body)



def chart(rows: list[Figure3Row]) -> str:
    """Render the rows as a terminal bar chart."""
    from repro.experiments.plotting import hbar_chart

    return hbar_chart(
        [(r.name, 100 * r.savings) for r in rows],
        title="Savings with simple-fixed at 1.5x frequency",
    )


def claims(rows: list[Figure3Row]) -> list[str]:
    """Figure 3's shapes; one message per broken claim."""
    checks = [(len(rows) == 6, f"{len(rows)} rows, not 6")]
    for r in rows:
        # Savings stay positive (paper: 10-38%) but the frequency
        # advantage compresses them well below the Figure 2
        # tight-deadline band's top end.
        checks += [
            (r.savings > 0.0, f"{r.name}: savings <= 0"),
            (r.savings < 0.65, f"{r.name}: savings >= 65%"),
        ]
    average = sum(r.savings for r in rows) / max(len(rows), 1)
    checks.append((
        0.05 < average < 0.55,
        f"average savings {100 * average:.1f}% outside (5%, 55%)",
    ))
    return [message for ok, message in checks if not ok]


def main(jobs: int | None = None) -> list[str] | None:
    """Command-line entry point: run and print the experiment; returns
    the broken claims (``None`` where ``shapes_checked()`` is false)."""
    print(
        "Figure 3 reproduction: simple-fixed at %.1fx frequency "
        "(scale=%s, instances=%d)"
        % (FREQ_ADVANTAGE, default_scale(), default_instances())
    )
    rows = run(jobs=jobs)
    print(render(rows))
    print()
    print(chart(rows))
    return claims(rows) if shapes_checked() else None

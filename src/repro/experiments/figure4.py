"""Figure 4: power savings under induced mispredictions (§6.2).

Caches and branch predictor are flushed at the start of 10/20/30 % of the
task instances, driving those tasks over their checkpoints so the complex
processor falls back to simple mode (at the high recovery frequency) for
most of the flushed task.  Expected shape: savings decline roughly in
proportion to the misprediction rate — and *every deadline is still met*,
which the runtime asserts on every instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    default_instances,
    default_scale,
    flush_set,
    flush_window_start,
    format_table,
    run_pair,
    setup,
)
from repro.experiments.parallel import parallel_map
from repro.workloads import WORKLOAD_NAMES

RATES = (0.0, 0.1, 0.2, 0.3)


@dataclass
class Figure4Row:
    name: str
    rate: float
    savings: float
    savings_standby: float
    flushed: int
    missed_checkpoints: int


def _cell(args: tuple[str, float, str, int]) -> Figure4Row:
    """One (benchmark, flush rate) configuration; runs in a worker process."""
    name, rate, scale, instances = args
    prep = setup(name, scale)
    flushed = flush_set(instances, rate)
    # All rates share the pre-flush warm-up, so run_pair can fork each
    # cell from one snapshotted prefix instead of re-simulating it.
    pair = run_pair(
        prep, prep.deadline_tight, instances, flush_instances=flushed,
        warm_start=flush_window_start(instances),
    )
    assert all(r.deadline_met for r in pair.visa_runs)
    assert all(r.deadline_met for r in pair.simple_runs)
    return Figure4Row(
        name=name,
        rate=rate,
        savings=pair.savings(standby=False),
        savings_standby=pair.savings(standby=True),
        flushed=len(flushed),
        missed_checkpoints=sum(r.mispredicted for r in pair.visa_runs),
    )


def run(
    scale: str | None = None,
    instances: int | None = None,
    rates: tuple[float, ...] = RATES,
    jobs: int | None = None,
) -> list[Figure4Row]:
    """Run the experiment; returns one row per measured configuration."""
    scale = scale or default_scale()
    instances = instances or default_instances()
    cells = [
        (name, rate, scale, instances)
        for name in WORKLOAD_NAMES
        for rate in rates
    ]
    return parallel_map(_cell, cells, jobs)


def render(rows: list[Figure4Row]) -> str:
    """Render the measured rows as an aligned text table."""
    headers = [
        "bench", "flush rate", "savings%", "savings%+standby",
        "flushed", "missed ckpts",
    ]
    body = [
        [
            r.name,
            f"{100 * r.rate:.0f}%",
            f"{100 * r.savings:.1f}",
            f"{100 * r.savings_standby:.1f}",
            str(r.flushed),
            str(r.missed_checkpoints),
        ]
        for r in rows
    ]
    return format_table(headers, body)



def chart(rows: list[Figure4Row]) -> str:
    """Render the rows as a terminal bar chart."""
    from repro.experiments.plotting import grouped_chart

    groups = {}
    for r in rows:
        groups.setdefault(r.name, []).append(
            (f"{100 * r.rate:.0f}% flushed", 100 * r.savings)
        )
    return grouped_chart(
        groups, title="Savings under induced mispredictions"
    )

def main(jobs: int | None = None) -> None:
    """Command-line entry point: run and print the experiment."""
    print(
        "Figure 4 reproduction: induced mispredictions "
        "(scale=%s, instances=%d)" % (default_scale(), default_instances())
    )
    rows = run(jobs=jobs)
    print(render(rows))
    print()
    print(chart(rows))


if __name__ == "__main__":
    main()

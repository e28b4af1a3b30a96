"""Shared experiment machinery: deadlines, calibration, paired runs."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from repro.power.model import PowerModel
from repro.power.report import energy_of_runs, power_savings
from repro.snapshot import runcache, warmup
from repro.snapshot.state import canonical_json, program_digest
from repro.visa.dvs import DVSTable
from repro.visa.runtime import (
    RuntimeConfig,
    SimpleFixedRuntime,
    TaskRun,
    VISARuntime,
)
from repro.visa.spec import VISASpec
from repro.wcet.dcache_pad import calibrate_dcache_bounds
from repro.workloads import get_workload
from repro.workloads.base import Workload

#: Mode-and-frequency switch overhead (seconds).  The paper's tasks are
#: 72 us - 3.5 ms; ours are scaled down ~10x, and the overhead scales with
#: them (DESIGN.md §6).
OVHD = 2e-6

#: Tight deadline factor over WCET at the top frequency.  The paper's
#: tight deadlines (Table 3) sit 10-25 % above the WCET bound — "the
#: tightest that can be guaranteed with frequency speculation" (§5.3).
TIGHT_FACTOR = 1.15

#: Loose deadline: based on an intermediate simple-fixed frequency of
#: ~600 MHz (paper §5.3).
LOOSE_BASIS_HZ = 600e6

#: ``calibrate_dcache_bounds`` arguments for every set-up; they key the
#: set-up entry, so changing one re-calibrates.
CALIBRATION = {"seeds": 5, "margin": 1.25, "slack": 4}


def default_scale() -> str:
    """Workload scale preset (REPRO_SCALE env var; default: tiny)."""
    return os.environ.get("REPRO_SCALE", "tiny")


def shapes_checked() -> bool:
    """Whether the table3-figure4 claims are checked at
    :func:`default_scale`.

    They are the paper's shapes, and ``tiny`` inputs are too small for
    them (warm-up and cold-cache charges dominate), so they are checked
    at every larger scale only.
    """
    return default_scale() != "tiny"


def default_instances() -> int:
    """Task instances per configuration (paper: 200).

    PET histories converge over a few re-evaluation periods (every 10th
    task), so at least ~40 instances are needed for the frequencies to
    settle; beyond that the averages barely move.
    """
    return int(os.environ.get("REPRO_INSTANCES", "40"))


@dataclass
class Setup:
    """Per-benchmark preparation shared by all experiments."""

    workload: Workload
    dcache_bounds: list[int]
    wcet_1ghz_seconds: float
    deadline_tight: float
    deadline_loose: float


def _setup_key(workload: Workload, scale: str) -> str:
    """Set-up entry key: the program digest (salted with the format
    version) and every constant the cached values depend on."""
    payload = {
        "program": program_digest(workload.program),
        "deadline": [OVHD, TIGHT_FACTOR, LOOSE_BASIS_HZ],
        "calibration": CALIBRATION,
    }
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    return f"{workload.name}-{scale}-{digest[:16]}"


def setup(name: str, scale: str) -> Setup:
    """Per-benchmark preparation, memoized in-process and on disk.

    The expensive parts (D-cache calibration + two WCET analyses) are a
    ``setup`` entry of :mod:`repro.snapshot.runcache` keyed by
    :func:`_setup_key`, so parallel experiment workers and repeated
    benchmark processes skip the static analyzer.
    ``REPRO_NO_CACHE=1`` bypasses the disk layer entirely; the in-process
    ``setup`` memo under the same key (and with it the
    ``setup(a, b) is setup(a, b)`` identity) always applies.
    """
    workload = get_workload(name, scale)
    key = _setup_key(workload, scale)
    return runcache.memo("setup", key, lambda: _prepare(workload, key))


def _prepare(workload: Workload, key: str) -> Setup:
    def decode(value: dict) -> Setup:
        return Setup(
            workload=workload,
            dcache_bounds=[int(b) for b in value["dcache_bounds"]],
            wcet_1ghz_seconds=float(value["wcet_1ghz_seconds"]),
            deadline_tight=float(value["deadline_tight"]),
            deadline_loose=float(value["deadline_loose"]),
        )

    cached = runcache.load("setup", key, decode)
    if cached is not None:
        return cached
    bounds = calibrate_dcache_bounds(workload, **CALIBRATION)
    # Through the shared analysis, so these two solves warm it for the
    # runtimes that follow.
    spec, program = VISASpec(), workload.program
    wcet_1g = spec.wcet(program, 1e9, bounds).total_seconds
    wcet_loose = spec.wcet(program, LOOSE_BASIS_HZ, bounds).total_seconds
    prep = Setup(
        workload=workload,
        dcache_bounds=bounds,
        wcet_1ghz_seconds=wcet_1g,
        deadline_tight=TIGHT_FACTOR * wcet_1g + OVHD,
        deadline_loose=wcet_loose + OVHD,
    )
    runcache.store("setup", key, {
        "dcache_bounds": bounds,
        "wcet_1ghz_seconds": wcet_1g,
        "deadline_tight": prep.deadline_tight,
        "deadline_loose": prep.deadline_loose,
    })
    return prep


@dataclass
class PairResult:
    """Both processors' runs for one configuration.

    The runtime fields are ``None`` when the corresponding run was served
    from the run-level result cache (no simulation happened, so there is
    no runtime object to expose).
    """

    visa_runs: list[TaskRun]
    simple_runs: list[TaskRun]
    visa_rt: VISARuntime | None
    simple_rt: SimpleFixedRuntime | None

    def savings(self, standby: bool, skip: int | None = None) -> float:
        """Fractional steady-state power savings of the complex core.

        The first instances run at the warm-up configuration (top
        frequency) until PET histories converge; the paper's 200-instance
        sequences amortize that start-up, so with our smaller instance
        counts we report the steady state by skipping the first two
        re-evaluation periods.
        """
        if skip is None:
            skip = min(20, len(self.visa_runs) // 2)
        complex_model = PowerModel("complex", standby=standby)
        simple_model = PowerModel("simple_fixed", standby=standby)
        complex_watts = energy_of_runs(
            self.visa_runs[skip:], complex_model
        ).average_watts
        simple_watts = energy_of_runs(
            self.simple_runs[skip:], simple_model
        ).average_watts
        return power_savings(complex_watts, simple_watts)


def _cached_runs(
    prep: Setup,
    config: RuntimeConfig,
    table: DVSTable,
    flush_instances: set[int],
    warm_start: int | None,
    make,
    kind: str,
) -> tuple[list[TaskRun], object | None]:
    """One runtime's full run, via the run cache and warm-up forking.

    Resolution order:

    1. **Run cache** — the whole ``TaskRun`` list keyed on (program digest,
       config fields, DVS table, flush set, extras, format version).  A hit
       skips simulation entirely and yields ``(runs, None)``.
    2. **Warm-up prefix fork** — when ``warm_start`` marks a flush-free
       prefix, restore (or simulate once) instances ``[0, warm_start)`` and
       simulate only the per-cell tail.
    3. **Cold run** — simulate everything.

    The cache key never encodes *how* the result was produced (forked and
    cold runs are bit-identical, differentially tested), so either path
    may populate an entry the other will hit.
    """
    workload = prep.workload
    extra = {"dcache_bounds": list(prep.dcache_bounds)}
    key = runcache.run_key(
        kind, workload.program, config, table, flush_instances, extra
    )
    cached = runcache.load_runs(workload.name, key)
    if cached is not None:
        return cached, None
    if warmup.forkable(flush_instances, warm_start, config.instances):
        runtime, warm_runs = warmup.warm_runtime(
            workload.name, kind, make, workload.program, config, table,
            warm_start, extra,
        )
        runs = warm_runs + runtime.run_span(
            warm_start, config.instances, flush_instances
        )
    else:
        runtime = make()
        runs = runtime.run(flush_instances=flush_instances)
    runcache.store_runs(workload.name, key, runs)
    return runs, runtime


def run_pair(
    prep: Setup,
    deadline: float,
    instances: int,
    flush_instances: set[int] = frozenset(),
    simple_freq_advantage: float = 1.0,
    flush_simple: bool = True,
    warm_start: int | None = None,
) -> PairResult:
    """Run the VISA complex processor and simple-fixed on one config.

    ``warm_start`` enables warm-up prefix forking: instances before it are
    simulated once per (benchmark, deadline, table) and shared across cells
    whose flush sets all land at or after it (Figure 4's rates).  Repeated
    invocations of an identical cell are served from the run-level result
    cache regardless of ``warm_start``.
    """
    config = RuntimeConfig(deadline=deadline, instances=instances, ovhd=OVHD)
    table = DVSTable.xscale()
    visa_runs, visa_rt = _cached_runs(
        prep, config, table, flush_instances, warm_start,
        lambda: VISARuntime(
            prep.workload, config, table=table,
            dcache_bounds=prep.dcache_bounds,
        ),
        kind="visa",
    )

    simple_table = (
        table.scaled(simple_freq_advantage)
        if simple_freq_advantage != 1.0
        else table
    )
    simple_flushes = flush_instances if flush_simple else frozenset()
    simple_runs, simple_rt = _cached_runs(
        prep, config, simple_table, simple_flushes, warm_start,
        lambda: SimpleFixedRuntime(
            prep.workload, config, table=simple_table,
            dcache_bounds=prep.dcache_bounds,
        ),
        kind="simple",
    )
    return PairResult(visa_runs, simple_runs, visa_rt, simple_rt)


def flush_window_start(instances: int, start: int | None = None) -> int:
    """First instance of the steady-state (flushable/measured) window.

    This is both where :func:`flush_set` starts placing flushes and where
    :meth:`PairResult.savings` starts measuring — and therefore the warm-up
    prefix length that :func:`run_pair` can fork across flush rates.
    """
    if start is not None:
        return start
    return min(20, instances // 2)


def flush_set(
    instances: int, fraction: float, start: int | None = None
) -> set[int]:
    """Flushed instances for Figure 4's 10/20/30 % misprediction rates.

    Flushes are spread over the steady-state window (after PET/frequency
    convergence, i.e. the same window the power report measures), so the
    flushed fraction of *measured* tasks equals ``fraction``.  Flushing
    during warm-up would be invisible: those instances carry large slack,
    absorb the flush without missing a checkpoint, and poison the PET
    history so later flushes stop firing.
    """
    start = flush_window_start(instances, start)
    window = instances - start
    if window <= 0:
        return set()
    count = min(window, round(window * fraction))
    if count <= 0:
        return set()
    # Deduplicate by construction: indices are forced strictly increasing
    # inside [start, instances), so exactly ``count`` instances are flushed.
    # (The old ``min(instances - 1, ...)`` clamp could collapse two indices
    # into one near the window edge, silently under-flushing.)
    step = window / count
    chosen: set[int] = set()
    next_free = start
    for i in range(count):
        idx = start + int(i * step)
        if idx < next_free:
            idx = next_free
        if idx >= instances:
            break
        chosen.add(idx)
        next_free = idx + 1
    return chosen


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Plain-text table for experiment output."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)

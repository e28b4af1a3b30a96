"""Per-workload WCET precision-gap benchmark (static engine vs MC oracle).

Runs both WCET engines on every C-lab workload and records the whole-task
precision gap ``(static − mc) / mc`` plus the soundness verdict of the
full ``static >= mc >= observed`` ladder — the headline metric of the
bounded model-checking oracle: how much pessimism the shipped static
analyzer carries, certified against an exact exploration of the same
pipeline model.

Per workload it also times the static engine's cold DVS sweep: a fresh
analyzer over all 37 XScale settings (one analysis pass per distinct
memory-stall count, the work EQ 4 needs before a first VISA run), as the
median and IQR over ``SWEEP_TRIALS`` runs.

Merges a ``wcet`` section into ``BENCH_speed.json``.

Usage:
    PYTHONPATH=src python benchmarks/bench_wcet.py [--scale tiny]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Timed cold static DVS sweeps per workload.
SWEEP_TRIALS = 5


def _static_sweep(program) -> tuple[dict, int]:
    """Time a cold static analysis of ``program`` at every XScale setting.

    Returns ({median, iqr, trials} in seconds, analysis passes per sweep).
    """
    from repro.visa.dvs import DVSTable
    from repro.wcet.analyzer import STATS, WCETAnalyzer

    settings = DVSTable.xscale().settings
    times = []
    for _ in range(SWEEP_TRIALS):
        before = STATS["passes"]
        start = time.perf_counter()
        analyzer = WCETAnalyzer(program)
        for setting in settings:
            analyzer.analyze(setting.freq_hz)
        times.append(time.perf_counter() - start)
        passes = STATS["passes"] - before
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {
        "median": round(statistics.median(times), 4),
        "iqr": round(q3 - q1, 4),
        "trials": SWEEP_TRIALS,
    }, passes


def _bench_workload(name: str, scale: str, freq_mhz: float) -> dict:
    from repro.wcet.mc.diff import diff_program
    from repro.wcet.mc.engine import ModelCheckEngine
    from repro.wcet.analyzer import WCETAnalyzer
    from repro.wcet.dcache_pad import measure_dcache_misses
    from repro.workloads.suite import get_workload

    w = get_workload(name, scale)

    def prepare(machine):
        w.apply_inputs(machine, w.generate_inputs(0))

    analyzer = WCETAnalyzer(w.program)
    analyzer.dcache_bounds = measure_dcache_misses(w.program, prepare)
    engine = ModelCheckEngine(analyzer)
    start = time.perf_counter()
    report = diff_program(
        w.program, freq_mhz=freq_mhz, prepare=prepare,
        analyzer=analyzer, engine=engine,
    )
    wall = time.perf_counter() - start
    sweep, passes = _static_sweep(w.program)
    return {
        "ok": report.ok,
        "subtasks": len(report.subtasks),
        "total_static_cycles": report.total_static,
        "total_mc_cycles": report.total_mc,
        "gap_pct": round(report.gap_pct, 4),
        "worst_subtask_gap_pct": round(
            max(s.gap_pct for s in report.subtasks), 4
        ),
        "mc_states_explored": engine.stats.steps,
        "mc_widenings": engine.stats.widenings,
        "wall_seconds": round(wall, 4),
        "static_sweep_s": sweep,
        "static_passes": passes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default="tiny",
        help="workload scale for the gap report (default: tiny)",
    )
    parser.add_argument(
        "--freq", type=float, default=1000.0,
        help="clock frequency in MHz (default: 1000)",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_speed.json"),
        help="JSON file to merge the wcet section into",
    )
    args = parser.parse_args(argv)

    from repro.workloads.suite import EXTRA_WORKLOAD_NAMES, WORKLOAD_NAMES

    workloads = {}
    unsound = []
    for name in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
        result = _bench_workload(name, args.scale, args.freq)
        workloads[name] = result
        if not result["ok"]:
            unsound.append(name)
        print(
            f"bench_wcet: {name}: "
            f"{'ok' if result['ok'] else 'UNSOUND'} "
            f"gap {result['gap_pct']:.2f}% "
            f"({result['total_static_cycles']} static vs "
            f"{result['total_mc_cycles']} mc cycles, "
            f"{result['wall_seconds']:.2f}s; "
            f"static sweep {result['static_sweep_s']['median']:.3f}s "
            f"over {result['static_passes']} passes)"
        )

    gaps = [w["gap_pct"] for w in workloads.values()]
    section = {
        "scale": args.scale,
        "freq_mhz": args.freq,
        "workloads": workloads,
        "mean_gap_pct": round(sum(gaps) / len(gaps), 4),
        "max_gap_pct": round(max(gaps), 4),
        "all_sound": not unsound,
        "note": (
            "gap_pct = (static - mc) / mc over whole-task padded cycles; "
            "static over-approximation certified against the bounded "
            "model-checking oracle (repro wcet diff); static_sweep_s = "
            "median/IQR seconds of a fresh analyzer over all 37 XScale "
            "settings (static_passes analysis passes)"
        ),
    }

    out = pathlib.Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report["wcet"] = section
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"bench_wcet: wrote wcet section to {out}")
    if unsound:
        print(f"bench_wcet: UNSOUND workloads: {', '.join(unsound)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())

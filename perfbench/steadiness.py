"""Run-to-run spread of the benchmark, raw beside host-normalised.

Runs ``perfbench/run.py`` once per seed for each workload, one run at a
time, and reports per end-to-end metric the median and the quartile
spread (Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)``
gives the quartiles.  Timing metrics are reported twice: host-normalised
(what the benchmark prints) and raw, so the gain from normalisation is
measured.  ``--write`` stores the table in perfbench/steadiness.json,
under the seed range.

    python3 perfbench/steadiness.py --seeds 10 --seconds 20 --write
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = next(
        json.loads(line.split(" ", 1)[1])
        for line in proc.stderr.splitlines() if line.startswith("perfbench: {")
    )
    return {
        "correct": result["correct"],
        "norm": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": summary["raw"],
        "wall_s": summary["wall_s"],
    }


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    table: dict = {}
    for workload in args.workload or WORKLOADS:
        runs = [
            one_run(workload, seed, args.seconds)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        rows: dict = {
            "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
            "all_correct": all(r["correct"] for r in runs),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "metrics": {},
        }
        for name in runs[0]["norm"]:
            median, iqr = spread([r["norm"][name] for r in runs])
            row = {"median": median, "spread": iqr}
            if name in runs[0]["raw"]:
                raw_median, raw_iqr = spread([r["raw"][name] for r in runs])
                row.update(raw_median=raw_median, raw_spread=raw_iqr)
            rows["metrics"][name] = row
        table[workload] = rows
        print(json.dumps({workload: rows}, indent=1, sort_keys=True), flush=True)
    if args.write:
        path = BENCH / "steadiness.json"
        record = json.loads(path.read_text()) if path.exists() else {}
        label = f"seeds {args.first_seed}-{args.first_seed + args.seeds - 1}"
        record.setdefault(label, {}).update(table)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

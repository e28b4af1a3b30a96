"""The repro benchmark: one workload per run, end-to-end or traced metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-cells --seed 1 --seconds 20 --trace 0

Workloads: ``sim-cells``, ``analysis-jobs``, ``serve-mixed`` (see
perfbench/README.md).  Every timing is host-normalised by a fixed
pure-Python probe sampled all through the run (:class:`harness.Probe`).
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).  A human-readable summary, including the raw
values, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import spans  # noqa: E402
from harness import CONFIG, TIMINGS, BenchError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-cells", "analysis-jobs", "serve-mixed")


def overhead_ratio(ops: list[harness.Op]) -> float:
    """Traced / untraced ops per second, kind by kind.

    Each op kind present both ways contributes its count times its mean
    latency on either side, so a different kind mix among the traced ops
    does not read as tracing cost.
    """
    traced_s = plain_s = 0.0
    for kind in {op.kind for op in ops}:
        on = [op.latency_s for op in ops if op.kind == kind and op.traced]
        off = [op.latency_s for op in ops if op.kind == kind and not op.traced]
        if on and off:
            weight = len(on) + len(off)
            traced_s += weight * sum(on) / len(on)
            plain_s += weight * sum(off) / len(off)
    return plain_s / traced_s if traced_s else 0.0


def _workload_module(name: str):
    if name == "sim-cells":
        import sim_cells as module
    elif name == "analysis-jobs":
        import analysis_jobs as module
    else:
        import serve_mixed as module
    return module


def measure(workload: str, seed: int, seconds: float, trace: bool,
            record: bool = False) -> dict:
    """Run one workload; returns the result object printed as JSON."""
    t_start = time.perf_counter()
    scratch = harness.isolate(ROOT, workload)
    try:
        module = _workload_module(workload)
        probe = harness.Probe(module.probe_cpus())
        probe.start()
        try:
            t_import = time.perf_counter()
            import repro.experiments.common  # noqa: F401
            import repro.service.jobs  # noqa: F401
            import_s = time.perf_counter() - t_import
            harness.assert_cold(scratch)
            tracer = spans.Tracer()
            if trace:
                tracer.install()
            expected = harness.Expected(workload, seed, record)
            outcome = module.run(seed, seconds, probe, tracer, expected)
        finally:
            probe.stop()
        expected.save()
        factor = probe.factor()
        norm, raw = harness.summarize(outcome, probe)
        layers = dict(outcome.layers)
        layers["host_probe_s"] = probe.median_s()
        layers["setup.import_s"] = import_s * factor
        for name in TIMINGS:
            layers[f"raw.{name}"] = raw[name]
        if trace:
            from repro.isa import blockjit

            layers.update(spans.layer_metrics(
                tracer, factor, blockjit.disk_cache_stats()
            ))
            guard = [
                name for name in CONFIG["workloads"][workload]["layers"]
                if name not in tracer.names
            ]
            if guard:
                outcome.errors.append(f"wrappers never fired: {guard}")
            layers["trace_overhead_ratio"] = overhead_ratio(outcome.ops)
            out_dir = ROOT / ".perfbench_out"
            tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    finally:
        harness.remove_scratch(scratch)

    failed = sum(not op.ok for op in outcome.ops)
    latencies = [op.latency_s for op in outcome.ops]
    summary = {
        "workload": workload,
        "seed": seed,
        "ops": len(outcome.ops),
        "tail_q": outcome.tail_q,
        "tail_beyond": harness.beyond(latencies, outcome.tail_q),
        "probe_factor": factor,
        "wall_s": time.perf_counter() - t_start,
        "raw": raw,
        "norm": norm,
        "errors": outcome.errors[:10],
    }
    print("perfbench: " + json.dumps(summary, sort_keys=True), file=sys.stderr)
    values = layers if trace else norm
    units = harness.metric_units("per_layer" if trace else "end_to_end")
    metrics = {
        # A traced run prints every layer; one its workload never reaches
        # reads 0.
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    return {
        "correct": failed == 0 and not outcome.errors,
        "attempted": len(outcome.ops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="rewrite perfbench/expected/<workload>.json from this run",
    )
    args = parser.parse_args(argv)
    try:
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.record_digests,
        )
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

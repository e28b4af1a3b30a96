#!/usr/bin/env python3
"""Timing-safety binary compatibility (§1.2), end to end.

The paper's closing idea: append parameterized WCET information to a task
binary so *any* VISA-compliant processor can admit and schedule it without
re-running the timing analyzer.  This example plays both roles:

* the **vendor** compiles a task, runs the analyzer once over the whole
  DVS stall range, packages the paper's parameterization (per sub-task,
  the exact line ``base + misses * stall``: cycles that scale with the
  frequency and cycles that scale with the memory latency), and ships a
  single JSON artifact;
* the **deployment** loads the artifact, checks the VISA fingerprint,
  evaluates WCETs at its own DVS operating points with no analyzer in
  sight, and runs the task under the full VISA runtime using only the
  shipped bounds.

Run:  python examples/timed_binary_deployment.py
"""

import os
import tempfile

from repro import DVSTable, RuntimeConfig, VISARuntime, VISASpec
from repro.visa.binary import attach_wcet, dumps, loads
from repro.wcet.dcache_pad import calibrate_dcache_bounds
from repro.workloads import get_workload


def vendor_side(path: str) -> None:
    print("=== vendor: compile, analyze once, ship ===")
    workload = get_workload("fir", "tiny")
    bounds = calibrate_dcache_bounds(workload)
    binary = attach_wcet(workload.program, dcache_bounds=bounds)
    text = dumps(binary)
    with open(path, "w") as fh:
        fh.write(text)
    print(f"  shipped {len(text)} bytes: {len(binary.params)} sub-task WCET "
          f"params, VISA fingerprint {binary.fingerprint}")
    for k, p in enumerate(binary.params[:3]):
        base, misses = p.line
        print(f"    sub-task {k}: {base} + {misses}*stall cycles "
              f"+ {p.dmiss_bound} D-misses")


def deployment_side(path: str) -> None:
    print("\n=== deployment: load, verify, schedule — no analyzer ===")
    with open(path) as fh:
        binary = loads(fh.read())

    spec = VISASpec()
    table = DVSTable.xscale()
    print("  fingerprint check:",
          "OK" if binary.fingerprint else "?!")
    for setting in (table.lowest, table.at_least(500e6), table.highest):
        task = binary.wcet(setting.freq_hz, spec=spec)
        print(f"  WCET @ {setting.freq_hz / 1e6:6.0f} MHz: "
              f"{task.total_cycles:6d} cycles = "
              f"{task.total_seconds * 1e6:7.2f} us")

    # Admission: pick a deadline from the shipped bound and run for real.
    deadline = 1.25 * binary.wcet(1e9, spec=spec).total_seconds + 2e-6
    workload = get_workload("fir", "tiny")  # same program; inputs per period
    runtime = VISARuntime(
        workload,
        RuntimeConfig(deadline=deadline, instances=20, ovhd=2e-6),
        spec=spec,
    )
    # Swap the live analyzer for the shipped parameterization.
    runtime.wcet_fn = lambda freq_hz: binary.wcet(freq_hz, spec=spec)
    runs = runtime.run()
    print(f"\n  ran 20 instances at deadline {deadline * 1e6:.2f} us "
          f"using shipped WCETs only:")
    print("  frequency trajectory (MHz):",
          [int(r.f_spec.freq_hz / 1e6) for r in runs[::4]])
    print(f"  missed checkpoints: {sum(r.mispredicted for r in runs)}, "
          f"all deadlines met: {all(r.deadline_met for r in runs)}")

    # A mismatched VISA must be rejected.
    wrong = VISASpec(mem_stall_ns=60.0)
    try:
        binary.wcet(1e9, spec=wrong)
    except Exception as exc:
        print(f"\n  mismatched VISA correctly rejected: {exc}")


def main() -> None:
    with tempfile.NamedTemporaryFile(suffix=".timedbin", delete=False) as fh:
        path = fh.name
    try:
        vendor_side(path)
        deployment_side(path)
    finally:
        os.unlink(path)


if __name__ == "__main__":
    main()

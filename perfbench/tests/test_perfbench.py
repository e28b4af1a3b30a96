"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

The smoke runs start ``perfbench/run.py`` as a child process, as the
benchmark is meant to be run; each takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["sim-cells", "analysis-jobs", "serve-mixed"])
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = _run("--workload", workload, "--seed", "7", "--seconds", "1")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = harness.metric_units("end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
    assert result["metrics"]["success_rate"]["value"] == 1.0


def test_traced_smoke_run_emits_every_layer_metric():
    result = _run(
        "--workload", "analysis-jobs", "--seed", "7", "--seconds", "2",
        "--trace", "1",
    )
    assert result["correct"] is True
    units = harness.metric_units("per_layer")
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    assert result["metrics"]["minicc.compile_calls"]["value"] >= 1
    assert result["metrics"]["trace_overhead_ratio"]["value"] > 0


def test_wrong_expected_digest_is_a_counted_failure():
    # Default seed, so the ops are checked against perfbench/expected/;
    # every expected digest is corrupted before the run.
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(BENCH)!r})
        import harness, run
        load = harness.Expected.__init__
        def corrupt(self, *args, **kwargs):
            load(self, *args, **kwargs)
            self.digests = {{key: "0" * 24 for key in self.digests}}
        harness.Expected.__init__ = corrupt
        print(json.dumps(run.measure("analysis-jobs", 1, 1.0, False)))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
        text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    rate = result["metrics"]["success_rate"]["value"]
    assert rate == (result["attempted"] - result["failed"]) / result["attempted"]
    assert rate < 1.0


def _synthetic_probe(seconds_at) -> harness.Probe:
    """A probe sampled every 50 ms over 40 s, ``seconds_at(t)`` each."""
    probe = harness.Probe()
    probe.ref_s = 1e-6
    probe.times[None] = [0.05 * i for i in range(800)]
    probe.seconds[None] = [seconds_at(t) for t in probe.times[None]]
    return probe


def test_normalisation_on_a_synthetic_probe_ratio():
    # The host ran the probe at half the reference speed all run long:
    # every duration halves and every rate doubles once normalised.
    probe = _synthetic_probe(lambda t: 2e-6)
    assert probe.factor() == pytest.approx(0.5)
    ops = [harness.Op(f"k{i}", "k", 5.0 * i, 0.2 * (i + 1), True) for i in range(4)]
    outcome = harness.Outcome(
        ops=ops, setup_samples=[(1.0, 3.0, None), (6.0, 1.0, None), (9.0, 2.0, None)],
        rss_mb=10.0, tail_q=75,
    )
    norm, raw = harness.summarize(outcome, probe)
    assert raw["setup_s"] == pytest.approx(2.0)
    assert norm["setup_s"] == pytest.approx(1.0, rel=1e-3)
    assert norm["op_p50_s"] == pytest.approx(raw["op_p50_s"] * 0.5, rel=1e-3)
    assert norm["op_tail_s"] == pytest.approx(raw["op_tail_s"] * 0.5, rel=1e-3)
    assert norm["ops_per_s"] == pytest.approx(raw["ops_per_s"] * 2.0, rel=1e-3)
    assert raw["ops_per_s"] == pytest.approx(4 / 2.0)
    assert norm["success_rate"] == 1.0


def test_normalisation_follows_host_speed_within_a_run():
    # The host runs at half speed between t=10 and t=20 only: a timing is
    # scaled by the probe runs inside it, a short one by its neighbours.
    probe = _synthetic_probe(lambda t: 2e-6 if 10 <= t < 20 else 1e-6)
    assert probe.norm(12.0, 4.0) == pytest.approx(2.0, rel=1e-3)
    assert probe.norm(31.0, 4.0) == pytest.approx(4.0, rel=1e-3)
    assert probe.norm(15.001, 0.001) == pytest.approx(0.0005, rel=1e-3)


def test_probe_time_inside_a_timing_is_not_counted():
    probe = _synthetic_probe(lambda t: 0.01)
    probe.ref_s = 0.01
    # 20 probe runs of 10 ms start inside [1.0, 2.0): 0.2 s is the probe's.
    assert probe.norm(1.0, 1.0) == pytest.approx(0.8)


def test_percentile_and_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 50) == pytest.approx(50.5)
    assert harness.percentile(values, 90) == pytest.approx(90.1)
    assert harness.beyond(values, 90) == 10


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    # Only BENCHMARK.json and perfbench/ present: no repro package to run.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-cells",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

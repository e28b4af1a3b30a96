"""analysis-jobs: a closed loop of seeded analysis jobs through ``jobs.execute``.

Each round runs static ``wcet`` and ``lint`` on every C-lab kernel at
``tiny`` and ``default`` size, ``wcet --engine mc`` on every program whose
model-checking run stays well under a second, and ``admit`` on four
seeded RM/EDF task sets, in a seeded order.  Every op's MiniC source
carries a unique trailing comment, so no two payloads repeat and minicc
compiles every op.
"""

from __future__ import annotations

import random
import statistics
import time

from harness import (
    CONFIG, Expected, Op, Outcome, Probe, digest, self_rss_mb,
)
from spans import Tracer

KERNELS = ("adpcm", "cnt", "fft", "lms", "mm", "srt", "crc", "fir")
SCALES = ("tiny", "default")
#: Model-checking pool: adpcm takes seconds even at tiny scale.
MC_POOL = tuple(
    (k, "tiny") for k in ("cnt", "fft", "lms", "mm", "srt", "crc", "fir")
) + (("cnt", "default"), ("crc", "default"))
KINDS = ("wcet", "wcet_mc", "lint", "admit")
#: Fixed (seed-independent) admission warm-up periods, in WCETs.
WARM_PERIODS = (1.1, 1.5, 2.0, 3.0, 5.0, 8.0)


def _source(kernel: str, scale: str, salt: str) -> str:
    from repro.workloads import get_workload

    return get_workload(kernel, scale).source + f"\n// perfbench {salt}\n"


#: One round: every (kind, program) pair once, plus seeded task sets.
ROUND = (
    [("wcet", k, s) for s in SCALES for k in KERNELS]
    + [("wcet_mc", k, s) for k, s in MC_POOL]
    + [("lint", k, s) for s in SCALES for k in KERNELS]
    + [("admit", "", "")] * 4
)


def op_list(seed: int, rounds: int, wcet_us: dict[str, float]) -> list[tuple[str, str, dict]]:
    """``(kind, key, payload)`` per op; prefix-stable in ``rounds``.

    Each round runs :data:`ROUND` in a seeded order, so every seed has
    the same kind and program mix.
    """
    rng = random.Random(f"analysis-jobs:{seed}")
    ops = []
    for _ in range(rounds):
        for kind, kernel, scale in rng.sample(ROUND, len(ROUND)):
            if kind == "admit":
                size = rng.randint(1, 4)
                tasks = [
                    {
                        "workload": name,
                        "period": round(
                            wcet_us[name] * 1e-6 * size * rng.uniform(1.2, 6.0),
                            9,
                        ),
                    }
                    for name in rng.sample(KERNELS, size)
                ]
                payload = {"tasks": tasks, "policy": rng.choice(("rm", "edf"))}
                ops.append((kind, f"admit:{digest(payload)}", payload))
                continue
            payload = {"source": _source(kernel, scale, f"{seed}:{len(ops)}")}
            if kind != "lint":
                payload["engine"] = "mc" if kind == "wcet_mc" else "static"
            ops.append((kind, f"{kind}:{kernel}:{scale}", payload))
    return ops


def _check(kind: str, key: str, result: dict, static_cycles: dict) -> str | None:
    """Seed-independent correctness of one result (None when right)."""
    if kind == "wcet":
        want = static_cycles[key.split(":", 1)[1]]
        if result["total_cycles"] != want:
            return f"{key}: static bound {result['total_cycles']} != {want}"
    elif kind == "wcet_mc":
        bound = static_cycles[key.split(":", 1)[1]]
        if not 0 < result["total_cycles"] <= bound:
            return f"{key}: mc bound {result['total_cycles']} above static {bound}"
    elif kind == "lint":
        if not result["clean"]:
            return f"{key}: lint findings {result['diagnostics'][:2]}"
    elif "digest" not in result or not isinstance(result.get("admissible"), bool):
        return f"{key}: malformed admission decision"
    return None


def probe_cpus() -> tuple[None]:
    """In-process: the probe follows the thread wherever it runs."""
    return (None,)


def run(seed: int, seconds: float, probe: Probe, tracer: Tracer,
        expected: Expected) -> Outcome:
    from repro.errors import ReproError
    from repro.service import jobs

    conf = CONFIG["workloads"]["analysis-jobs"]

    def execute(kind: str, payload: dict) -> dict:
        job_kind = "wcet" if kind == "wcet_mc" else kind
        return jobs.execute(job_kind, jobs.normalize(job_kind, payload))

    # Set-up, once per program: compile, cold codegen, D-cache measurement
    # and the static bound; for tiny programs also the admission WCETs.
    setup_samples = []
    static_cycles: dict[str, int] = {}
    wcet_us: dict[str, float] = {}
    tracer.record(True)
    with tracer.span("setup"):
        for scale in SCALES:
            for kernel in KERNELS:
                t0 = time.perf_counter()
                result = execute(
                    "wcet", {"source": _source(kernel, scale, "setup")}
                )
                if scale == "tiny":
                    for factor in WARM_PERIODS:
                        execute("admit", {"tasks": [{
                            "workload": kernel,
                            "period": result["total_us"] * 1e-6 * factor,
                        }]})
                setup_samples.append((t0, time.perf_counter() - t0, None))
                static_cycles[f"{kernel}:{scale}"] = result["total_cycles"]
                if scale == "tiny":
                    wcet_us[kernel] = result["total_us"]

    rounds = max(1, round(seconds / conf["round_ref_s"]))
    plan = op_list(seed, rounds, wcet_us)
    ops: list[Op] = []
    errors: list[str] = []
    for index, (kind, key, payload) in enumerate(plan):
        traced = index % 2 == 0
        tracer.record(traced)
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                result = execute(kind, payload)
        except ReproError as exc:
            errors.append(f"{key}: {exc}")
            ops.append(Op(key, kind, t0, time.perf_counter() - t0, False, traced))
            continue
        latency = time.perf_counter() - t0
        problem = _check(kind, key, result, static_cycles) or expected.check(
            key, digest(result)
        )
        if problem:
            errors.append(problem)
        ops.append(Op(key, kind, t0, latency, problem is None, traced))
    tracer.record(False)

    layers = {}
    for kind in KINDS:
        lat = [probe.norm(op.start, op.latency_s) for op in ops if op.kind == kind]
        name = "jobs.wcet_mc_p50_s" if kind == "wcet_mc" else f"jobs.{kind}_p50_s"
        layers[name] = statistics.median(lat) if lat else 0.0
    return Outcome(
        ops=ops,
        setup_samples=setup_samples,
        rss_mb=self_rss_mb(),
        tail_q=conf["tail_q"],
        layers=layers,
        errors=errors,
    )

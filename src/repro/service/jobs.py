"""Job-type registry: payload validation, coalesce keys, execution.

The service accepts four job kinds at launch, mirroring the CLI:

* ``run`` — simulate a workload under the VISA runtime pair
  (:func:`repro.experiments.common.run_pair`) for a given deadline kind,
  instance count, and induced-flush rate.
* ``wcet`` — per-sub-task WCET analysis of a workload or MiniC source at
  a given frequency; ``engine`` picks the static analyzer (the default)
  or the bounded model-checking oracle, and the engine is pinned into
  the normalized payload so results cache per-engine.
* ``lint`` — the visalint static-analysis catalog over a workload or
  MiniC source.
* ``experiment`` — one of the paper's experiment drivers
  (:data:`repro.experiments.EXPERIMENT_NAMES`), run inside the worker
  (``jobs`` fans its cells across processes).
* ``admit`` — task-set admission control (:mod:`repro.rt.admission`):
  derive every task's WCET, pick the lowest feasible recovery DVS
  setting, build EQ 1 checkpoint plans, and answer admissible/not with
  per-task slack.  Deterministic, so it is cacheable and coalescible
  like ``wcet``.

Validation (:func:`normalize`) runs in the *server* process and
canonicalizes the payload — fills defaults, rejects unknown fields and
out-of-range values — so that two logically identical submissions are
byte-identical after normalization.  :func:`coalesce_key` then digests
the normalized payload with the same mechanism as
:func:`repro.snapshot.runcache.run_key` (``canonical_json`` salted with
the snapshot ``FORMAT_VERSION``), which is what makes single-flight
coalescing sound: equal keys imply equal simulations.  Inside the
worker, ``run`` jobs additionally hit the on-disk run cache under the
true ``run_key``, so even *sequential* duplicates cost one simulation.

Execution (:func:`execute`) runs in a worker process; heavy imports stay
inside the handlers so the server process never pays for them.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable

from repro.errors import ProtocolError
from repro.experiments import EXPERIMENT_NAMES
from repro.service.protocol import JSONDict
from repro.snapshot.state import FORMAT_VERSION, canonical_json

#: Workload scales the service accepts (mirrors the CLI choices).
SCALES = ("tiny", "default", "paper")

#: Kinds whose results are pure functions of the normalized payload —
#: eligible for the shared result store (see repro.service.store).
#: ``noop`` is deliberately absent: it measures the serving path itself.
CACHEABLE_KINDS = frozenset({"run", "wcet", "lint", "experiment", "admit"})


def _known_workloads() -> tuple[str, ...]:
    from repro.workloads.suite import EXTRA_WORKLOAD_NAMES, WORKLOAD_NAMES

    return tuple(WORKLOAD_NAMES) + tuple(EXTRA_WORKLOAD_NAMES)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _check_no_extras(payload: JSONDict, allowed: frozenset[str]) -> None:
    extras = set(payload) - allowed
    _require(not extras, f"unknown payload fields: {sorted(extras)}")


def _workload_field(payload: JSONDict) -> str:
    name = payload.get("workload")
    _require(isinstance(name, str), "payload requires a 'workload' name")
    known = _known_workloads()
    _require(
        name in known, f"unknown workload {name!r}; known: {list(known)}"
    )
    return str(name)


def _scale_field(payload: JSONDict) -> str:
    scale = payload.get("scale", "tiny")
    _require(scale in SCALES, f"scale must be one of {list(SCALES)}")
    return str(scale)


def _int_field(payload: JSONDict, name: str, default: int, lo: int, hi: int) -> int:
    value = payload.get(name, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer",
    )
    _require(lo <= int(value) <= hi, f"{name} must be in [{lo}, {hi}]")
    return int(value)


def _bool_field(payload: JSONDict, name: str, default: bool) -> bool:
    value = payload.get(name, default)
    _require(isinstance(value, bool), f"{name} must be a boolean")
    return bool(value)


# -- normalization (server side) -------------------------------------------------


def _normalize_run(payload: JSONDict) -> JSONDict:
    _check_no_extras(
        payload,
        frozenset(
            {"workload", "scale", "deadline", "instances", "flush_rate",
             "no_cache"}
        ),
    )
    deadline = payload.get("deadline", "tight")
    if isinstance(deadline, str):
        _require(
            deadline in ("tight", "loose"),
            "deadline must be 'tight', 'loose', or seconds",
        )
    else:
        _require(
            isinstance(deadline, (int, float)) and float(deadline) > 0,
            "deadline must be 'tight', 'loose', or positive seconds",
        )
        deadline = float(deadline)
    flush_rate = payload.get("flush_rate", 0.0)
    _require(
        isinstance(flush_rate, (int, float)) and 0.0 <= float(flush_rate) <= 1.0,
        "flush_rate must be in [0, 1]",
    )
    return {
        "workload": _workload_field(payload),
        "scale": _scale_field(payload),
        "deadline": deadline,
        "instances": _int_field(payload, "instances", 12, 1, 1000),
        "flush_rate": float(flush_rate),
        "no_cache": _bool_field(payload, "no_cache", False),
    }


def _engine_field(payload: JSONDict) -> str:
    """The WCET engine of a ``wcet`` payload (``static`` when unnamed).

    The engine is pinned into the normalized payload, so the coalesce
    digest — and the shared result store keyed from it — never aliases
    a static bound with a model-checked one.
    """
    from repro.wcet.mc import ENGINES

    engine = payload.get("engine")
    if engine is None:
        return "static"
    _require(
        isinstance(engine, str) and engine in ENGINES,
        f"engine must be one of {list(ENGINES)}",
    )
    return str(engine)


def _normalize_wcet(payload: JSONDict) -> JSONDict:
    _check_no_extras(
        payload,
        frozenset({"workload", "source", "scale", "freq_mhz", "engine"}),
    )
    freq = payload.get("freq_mhz", 1000.0)
    _require(
        isinstance(freq, (int, float)) and float(freq) > 0,
        "freq_mhz must be a positive number",
    )
    engine = _engine_field(payload)
    source = payload.get("source")
    if source is not None:
        _require(isinstance(source, str), "source must be MiniC text")
        return {
            "source": str(source),
            "freq_mhz": float(freq),
            "engine": engine,
        }
    return {
        "workload": _workload_field(payload),
        "scale": _scale_field(payload),
        "freq_mhz": float(freq),
        "engine": engine,
    }


def _normalize_lint(payload: JSONDict) -> JSONDict:
    _check_no_extras(
        payload, frozenset({"workload", "source", "scale", "disable"})
    )
    disable = payload.get("disable", [])
    _require(
        isinstance(disable, list)
        and all(isinstance(d, str) for d in disable),
        "disable must be a list of check ids",
    )
    from repro.analysis import ALL_CHECKS

    unknown = set(disable) - set(ALL_CHECKS)
    _require(not unknown, f"unknown checks: {sorted(unknown)}")
    source = payload.get("source")
    if source is not None:
        _require(isinstance(source, str), "source must be MiniC text")
        return {"source": str(source), "disable": sorted(set(disable))}
    return {
        "workload": _workload_field(payload),
        "scale": _scale_field(payload),
        "disable": sorted(set(disable)),
    }


def _normalize_experiment(payload: JSONDict) -> JSONDict:
    _check_no_extras(
        payload,
        frozenset({"name", "scale", "instances", "jobs", "no_cache"}),
    )
    name = payload.get("name")
    _require(
        name in EXPERIMENT_NAMES,
        f"experiment name must be one of {list(EXPERIMENT_NAMES)}",
    )
    return {
        "name": str(name),
        "scale": _scale_field(payload),
        "instances": _int_field(payload, "instances", 12, 2, 1000),
        "jobs": _int_field(payload, "jobs", 1, 1, 64),
        "no_cache": _bool_field(payload, "no_cache", False),
    }


def _normalize_noop(payload: JSONDict) -> JSONDict:
    """Synthetic job: optional sleep plus payload echo.

    ``tag`` keys the coalesce digest, so two noops coalesce exactly when
    their tags (and sleeps) match — which is what cluster tests and the
    serving-layer benchmarks rely on.
    """
    _check_no_extras(payload, frozenset({"tag", "sleep_ms", "echo"}))
    tag = payload.get("tag", "")
    _require(isinstance(tag, str), "tag must be a string")
    echo = payload.get("echo", {})
    _require(isinstance(echo, dict), "echo must be a JSON object")
    return {
        "tag": str(tag),
        "sleep_ms": _int_field(payload, "sleep_ms", 0, 0, 60_000),
        "echo": dict(echo),
    }


def _normalize_admit(payload: JSONDict) -> JSONDict:
    """Delegate to the admission library's own normalizer.

    One canonicalizer, two entry points: ``repro admit`` (library) and
    the service both normalize through
    :func:`repro.rt.admission.normalize_payload`, so the coalesce digest
    below is byte-identical to the library's
    :func:`~repro.rt.admission.task_set_digest` — pinned by tests.
    """
    from repro.rt.admission import normalize_payload

    return normalize_payload(payload)


_NORMALIZERS: dict[str, Callable[[JSONDict], JSONDict]] = {
    "run": _normalize_run,
    "wcet": _normalize_wcet,
    "lint": _normalize_lint,
    "experiment": _normalize_experiment,
    "noop": _normalize_noop,
    "admit": _normalize_admit,
}


def normalize(kind: str, payload: JSONDict) -> JSONDict:
    """Validate and canonicalize a job payload (server side).

    Raises :class:`ProtocolError` on any unknown kind, unknown field, or
    out-of-range value.  The result is fully defaulted, so logically
    identical submissions normalize to identical payloads.
    """
    normalizer = _NORMALIZERS.get(kind)
    if normalizer is None:
        raise ProtocolError(f"unknown job kind {kind!r}")
    return normalizer(payload)


def coalesce_key(kind: str, payload: JSONDict) -> str:
    """Single-flight key for a *normalized* payload.

    Same derivation as :func:`repro.snapshot.runcache.run_key` — a SHA-256
    over :func:`~repro.snapshot.state.canonical_json` salted with the
    snapshot ``FORMAT_VERSION`` — applied at the payload level (the true
    ``run_key`` needs the compiled program and solved deadline, which
    only exist inside the worker; the disk cache layers that key on top).
    """
    blob = canonical_json(
        {"format": FORMAT_VERSION, "kind": kind, "payload": payload}
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


# -- execution (worker side) -----------------------------------------------------


def _execute_run(payload: JSONDict) -> JSONDict:
    from repro.experiments.common import flush_set, run_pair, setup
    from repro.snapshot import runcache

    with runcache.no_cache_override(payload["no_cache"] or None):
        prep = setup(payload["workload"], payload["scale"])
        deadline = payload["deadline"]
        if deadline == "tight":
            deadline_s = prep.deadline_tight
        elif deadline == "loose":
            deadline_s = prep.deadline_loose
        else:
            deadline_s = float(deadline)
        instances = int(payload["instances"])
        flushes = flush_set(instances, float(payload["flush_rate"]))
        pair = run_pair(prep, deadline_s, instances, flushes)
    return {
        "workload": payload["workload"],
        "scale": payload["scale"],
        "deadline_seconds": deadline_s,
        "instances": instances,
        "flushed": len(flushes),
        "savings": pair.savings(standby=False),
        "savings_standby": pair.savings(standby=True),
        "mispredicted": sum(r.mispredicted for r in pair.visa_runs),
        "complex_mhz": pair.visa_runs[-1].f_spec.freq_hz / 1e6,
        "simple_mhz": pair.simple_runs[-1].f_spec.freq_hz / 1e6,
    }


def _job_program(payload: JSONDict) -> Any:
    if "source" in payload:
        from repro.minicc import compile_source

        return compile_source(payload["source"])
    from repro.workloads import get_workload

    return get_workload(payload["workload"], payload["scale"]).program


def _execute_wcet(payload: JSONDict) -> JSONDict:
    from repro.wcet.analyzer import WCETAnalyzer
    from repro.wcet.dcache_pad import measure_dcache_misses

    program = _job_program(payload)
    engine = payload.get("engine", "static")
    analyzer = WCETAnalyzer(program)
    analyzer.dcache_bounds = measure_dcache_misses(program)
    if engine == "mc":
        from repro.wcet.mc import ModelCheckEngine

        task = ModelCheckEngine(analyzer).analyze(payload["freq_mhz"] * 1e6)
    else:
        task = analyzer.analyze(payload["freq_mhz"] * 1e6)
    return {
        "engine": engine,
        "freq_mhz": payload["freq_mhz"],
        "stall_cycles": task.stall,
        "subtasks": [
            {
                "index": sub.index,
                "cycles": sub.cycles,
                "dmiss_bound": sub.dmiss_bound,
                "total_cycles": sub.total_cycles,
            }
            for sub in task.subtasks
        ],
        "total_cycles": task.total_cycles,
        "total_us": task.total_seconds * 1e6,
    }


def _execute_lint(payload: JSONDict) -> JSONDict:
    from repro.analysis import lint_program

    program = _job_program(payload)
    diagnostics = lint_program(
        program, disable=frozenset(payload["disable"])
    )
    return {
        "clean": not diagnostics,
        "count": len(diagnostics),
        "diagnostics": [diag.render() for diag in diagnostics],
    }


def _execute_experiment(payload: JSONDict) -> JSONDict:
    from repro.experiments import experiment_module
    from repro.snapshot import runcache

    name = payload["name"]
    scale = payload["scale"]
    instances = int(payload["instances"])
    jobs = int(payload["jobs"])
    module = experiment_module(name)
    with runcache.no_cache_override(payload["no_cache"] or None):
        rows: list[Any]
        if name == "table3":
            rows = module.run(scale=scale, jobs=jobs)
        elif name == "ablations":  # the sub-task granularity study only
            rows = module.run_subtask_granularity(
                scale=scale, instances=instances, jobs=jobs
            )
        else:
            rows = module.run(scale=scale, instances=instances, jobs=jobs)
    return {
        "name": name,
        "scale": scale,
        "rows": [dataclasses.asdict(row) for row in rows],
        "table": module.render(rows),
    }


def _execute_noop(payload: JSONDict) -> JSONDict:
    import time

    sleep_ms = int(payload["sleep_ms"])
    if sleep_ms:
        time.sleep(sleep_ms / 1000.0)
    return {
        "tag": payload["tag"],
        "slept_ms": sleep_ms,
        "echo": payload["echo"],
    }


def _execute_admit(payload: JSONDict) -> JSONDict:
    from repro.rt.admission import cached_decide

    return cached_decide(payload)


_EXECUTORS: dict[str, Callable[[JSONDict], JSONDict]] = {
    "run": _execute_run,
    "wcet": _execute_wcet,
    "lint": _execute_lint,
    "experiment": _execute_experiment,
    "noop": _execute_noop,
    "admit": _execute_admit,
}


def execute(kind: str, payload: JSONDict) -> JSONDict:
    """Run one normalized job to completion (worker side)."""
    executor = _EXECUTORS.get(kind)
    if executor is None:
        raise ProtocolError(f"unknown job kind {kind!r}")
    return executor(payload)


__all__ = [
    "CACHEABLE_KINDS",
    "EXPERIMENT_NAMES",
    "SCALES",
    "coalesce_key",
    "execute",
    "normalize",
]

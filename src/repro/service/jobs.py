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
from typing import Any, Callable

from repro.errors import ProtocolError
from repro.experiments import EXPERIMENT_NAMES
from repro.jobfields import (
    _require,
    bool_field,
    check_no_extras,
    engine_field,
    int_field,
    number_field,
    payload_digest,
    scale_field,
    workload_field,
)
from repro.service.protocol import JSONDict
from repro.wcet import DEFAULT_FREQ_MHZ, wcet_result
from repro.workloads.suite import SCALES  # re-exported: the service's scales

#: Kinds whose results are pure functions of the normalized payload —
#: eligible for the shared result store (see repro.service.store).
#: ``noop`` is deliberately absent: it measures the serving path itself.
CACHEABLE_KINDS = frozenset({"run", "wcet", "lint", "experiment", "admit"})


# -- normalization (server side) -------------------------------------------------


def _normalize_run(payload: JSONDict) -> JSONDict:
    check_no_extras(
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
        deadline = number_field(payload, "deadline", None, 0.0)
    return {
        "workload": workload_field(payload),
        "scale": scale_field(payload),
        "deadline": deadline,
        "instances": int_field(payload, "instances", 12, 1, 1000),
        "flush_rate": number_field(
            payload, "flush_rate", 0.0, 0.0, 1.0, closed=True
        ),
        "no_cache": bool_field(payload, "no_cache", False),
    }


def _program_fields(payload: JSONDict) -> JSONDict:
    """The program of a ``wcet``/``lint`` payload: MiniC ``source``, or a
    ``workload`` at a ``scale``."""
    source = payload.get("source")
    if source is not None:
        _require(isinstance(source, str), "source must be MiniC text")
        return {"source": str(source)}
    return {"workload": workload_field(payload), "scale": scale_field(payload)}


def _normalize_wcet(payload: JSONDict) -> JSONDict:
    check_no_extras(
        payload,
        frozenset({"workload", "source", "scale", "freq_mhz", "engine"}),
    )
    return {
        **_program_fields(payload),
        "freq_mhz": number_field(payload, "freq_mhz", DEFAULT_FREQ_MHZ, 0.0),
        "engine": engine_field(payload),
    }


def _normalize_lint(payload: JSONDict) -> JSONDict:
    check_no_extras(
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
    return {**_program_fields(payload), "disable": sorted(set(disable))}


def _normalize_experiment(payload: JSONDict) -> JSONDict:
    check_no_extras(
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
        "scale": scale_field(payload),
        "instances": int_field(payload, "instances", 12, 2, 1000),
        "jobs": int_field(payload, "jobs", 1, 1, 64),
        "no_cache": bool_field(payload, "no_cache", False),
    }


def _normalize_noop(payload: JSONDict) -> JSONDict:
    """Synthetic job: optional sleep plus payload echo.

    ``tag`` keys the coalesce digest, so two noops coalesce exactly when
    their tags (and sleeps) match — which is what the service tests and
    smoke checks rely on.
    """
    check_no_extras(payload, frozenset({"tag", "sleep_ms", "echo"}))
    tag = payload.get("tag", "")
    _require(isinstance(tag, str), "tag must be a string")
    echo = payload.get("echo", {})
    _require(isinstance(echo, dict), "echo must be a JSON object")
    return {
        "tag": str(tag),
        "sleep_ms": int_field(payload, "sleep_ms", 0, 0, 60_000),
        "echo": dict(echo),
    }


def _normalize_admit(payload: JSONDict) -> JSONDict:
    """Delegate to the admission library's own normalizer.

    One canonicalizer, two entry points: ``repro admit`` (library) and
    the service both normalize through
    :func:`repro.rt.admission.normalize_payload`, and both key it with
    :func:`repro.jobfields.payload_digest`, so the coalesce digest is the
    library's :func:`~repro.rt.admission.task_set_digest`.
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
    snapshot ``FORMAT_VERSION`` (:func:`repro.jobfields.payload_digest`) —
    applied at the payload level (the true ``run_key`` needs the compiled
    program and solved deadline, which only exist inside the worker; the
    disk cache layers that key on top).
    """
    return payload_digest(kind, payload)


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
    return wcet_result(
        _job_program(payload), payload["freq_mhz"], payload["engine"]
    )


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

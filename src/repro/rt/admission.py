"""Task-set admission control: VISA's always-on query as a library call.

A client describes a periodic task set — per task a workload + scale
(the WCET comes from the analyzer, never from the client), a period, and
an optional constrained deadline — and asks: *can this set be admitted,
and under which speculation plan?*  The decision combines every layer
this repository already has:

* each task's WCET curve over the DVS table, from
  :class:`repro.wcet.analyzer.WCETAnalyzer` (or the bounded
  model-checking oracle when ``engine="mc"``) with measured D-cache
  padding — the same derivation as the service's ``wcet`` job kind;
* the recovery (fallback) frequency: the lowest DVS setting at which
  every task has a valid EQ 1 checkpoint plan *and* the whole set passes
  the policy's schedulability test (exact RM response-time analysis or
  the EDF utilization/density test from :mod:`repro.rt.sched`), with
  one mode-switch overhead charged per job;
* per-task checkpoint/watchdog plans (:mod:`repro.visa.checkpoints`)
  against that recovery frequency, counting at the speculative (top)
  frequency — EQ 4's PET-driven refinement happens at runtime, so
  admission fixes the conservative pair {f_spec = top, f_rec = lowest
  feasible};
* a discrete-event cross-check over one (capped) hyperperiod when the
  set is small enough to simulate;
* the SMT co-scheduling model (:mod:`repro.visa.smt`): with ``n``
  background threads at aggressiveness ``alpha``, the RT thread keeps a
  ``1 / (1 + alpha*n)`` bandwidth share; the decision reports whether
  speculation stays viable under that contention and what fraction of
  core bandwidth background work can harvest.

Determinism is the contract: :func:`decide` is a pure function of the
normalized payload, so its canonical-JSON digest is byte-identical
whether computed by the library (``repro admit``), a single daemon, or
any backend of a ``--cluster`` fleet — which is what makes fleet-wide
coalescing and the shared result store sound for this job kind.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from typing import Any

from repro.errors import HyperperiodError, InfeasibleError
from repro.jobfields import (
    POLICIES,
    _require,
    check_no_extras,
    engine_field,
    int_field,
    payload_digest,
    scale_field,
    workload_field,
)
from repro.rt.sched import (
    PeriodicTask,
    edf_schedulable,
    hyperperiod,
    rm_response_times,
    slack_fraction,
    utilization,
)
from repro.snapshot.state import FORMAT_VERSION, canonical_json
from repro.workloads.suite import SCALES  # re-exported: accepted scales

JSONDict = dict[str, Any]

#: Most tasks per admission request.  Every task costs WCET analyses
#: over a binary search of the DVS table; eight bounds the worst case.
MAX_TASKS = 8

#: Largest simulated job count for the hyperperiod cross-check; bigger
#: sets still get the analytic verdict, just no simulation.
SIM_JOB_CAP = 10_000

#: Complex-over-simple speedup assumed for speculative execution time
#: (mirrors ``RuntimeConfig.aet_scale_ratio``; the OOO core retires the
#: same work in roughly a quarter of the in-order worst-case cycles).
AET_SCALE_RATIO = 4.0


# -- payload normalization -------------------------------------------------------


def _positive_seconds(value: Any, what: str, upper: float) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{what} must be a number (seconds)",
    )
    seconds = float(value)
    _require(
        0.0 < seconds <= upper,
        f"{what} must be in (0, {upper:g}] seconds",
    )
    return seconds


def normalize_payload(payload: JSONDict) -> JSONDict:
    """Validate and canonicalize one ``admit`` payload.

    Fills defaults (task names, explicit deadlines, the ``static`` WCET
    engine) and rejects unknown fields and out-of-range values, so
    logically identical submissions are byte-identical — the service's
    coalesce digest and the decision cache both key on the result.
    Raises :class:`~repro.errors.ProtocolError` on any violation.
    """
    check_no_extras(
        payload,
        frozenset({"tasks", "policy", "engine", "background_threads", "alpha"}),
    )
    raw_tasks = payload.get("tasks")
    _require(
        isinstance(raw_tasks, list) and len(raw_tasks) > 0,
        "payload requires a non-empty 'tasks' list",
    )
    assert isinstance(raw_tasks, list)
    _require(
        len(raw_tasks) <= MAX_TASKS,
        f"at most {MAX_TASKS} tasks per admission request",
    )
    tasks: list[JSONDict] = []
    names: set[str] = set()
    for index, raw in enumerate(raw_tasks):
        where = f"tasks[{index}]: "
        _require(
            isinstance(raw, dict), f"tasks[{index}] must be a JSON object"
        )
        check_no_extras(
            raw,
            frozenset({"name", "workload", "scale", "period", "deadline"}),
            where,
        )
        workload = workload_field(raw, where)
        scale = scale_field(raw, where)
        name = raw.get("name", f"t{index}-{workload}")
        _require(
            isinstance(name, str) and 0 < len(name) <= 64,
            f"{where}name must be a non-empty string (<= 64 chars)",
        )
        _require(name not in names, f"duplicate task name {name!r}")
        names.add(name)
        period = _positive_seconds(
            raw.get("period"), f"tasks[{index}].period", 60.0
        )
        deadline = raw.get("deadline")
        if deadline is None:
            deadline_s = period
        else:
            deadline_s = _positive_seconds(
                deadline, f"tasks[{index}].deadline", 60.0
            )
            _require(
                deadline_s <= period,
                f"{where}deadline must not exceed the period",
            )
        tasks.append(
            {
                "name": str(name),
                "workload": workload,
                "scale": scale,
                "period": period,
                "deadline": deadline_s,
            }
        )

    policy = payload.get("policy", "rm")
    _require(
        policy in POLICIES, f"policy must be one of {list(POLICIES)}"
    )
    engine = engine_field(payload)
    threads = int_field(payload, "background_threads", 0, 0, 8)
    alpha = payload.get("alpha", 1.0)
    _require(
        isinstance(alpha, (int, float)) and not isinstance(alpha, bool),
        "alpha must be a number",
    )
    _require(
        0.0 < float(alpha) <= 4.0, "alpha must be in (0, 4]"
    )
    return {
        "tasks": tasks,
        "policy": str(policy),
        "engine": engine,
        "background_threads": threads,
        "alpha": float(alpha),
    }


def task_set_digest(payload: JSONDict) -> str:
    """Digest of a *normalized* payload; the decision-cache key.

    The same :func:`repro.jobfields.payload_digest` as
    ``repro.service.jobs.coalesce_key("admit", payload)``, so the library
    cache, the single-flight table, and the shared result store all key
    the same bytes.
    """
    return payload_digest("admit", payload)


# -- WCET derivation -------------------------------------------------------------


@lru_cache(maxsize=64)
def _prepared(workload: str, scale: str) -> tuple[Any, tuple[int, ...]]:
    """Program + measured D-cache bounds for one workload (memoized)."""
    from repro.wcet.dcache_pad import measure_dcache_misses
    from repro.workloads import get_workload

    program = get_workload(workload, scale).program
    return program, tuple(measure_dcache_misses(program))


@lru_cache(maxsize=1024)
def _task_wcet(
    workload: str, scale: str, engine: str, freq_hz: float
) -> Any:
    """One task's :class:`TaskWCET` at one frequency (engine-pinned).

    Same derivation as the service's ``wcet`` job kind: the static
    timing-tree analyzer with measured D-cache padding, or the bounded
    model-checking oracle when ``engine="mc"``.  Memoized per process —
    the DVS search below probes O(log table) frequencies per task, and
    long-lived service workers amortize repeats across jobs.
    """
    from repro.visa.spec import VISASpec

    program, bounds = _prepared(workload, scale)
    if engine == "mc":
        from repro.wcet.analyzer import WCETAnalyzer
        from repro.wcet.mc import ModelCheckEngine

        analyzer = WCETAnalyzer(program)
        analyzer.dcache_bounds = list(bounds)
        return ModelCheckEngine(analyzer).analyze(freq_hz)
    return VISASpec().wcet(program, freq_hz, list(bounds))


# -- the decision ----------------------------------------------------------------


class _Evaluation:
    """Outcome of testing the task set against one recovery setting."""

    def __init__(self) -> None:
        self.feasible = False
        self.reason: str | None = None
        self.rtasks: list[PeriodicTask] = []
        self.wcets: list[Any] = []
        self.checkpoints: list[list[float]] = []


def _evaluate(
    tasks: list[JSONDict],
    policy: str,
    engine: str,
    rec_freq_hz: float,
    ovhd: float,
) -> _Evaluation:
    """Test one recovery frequency: per-task EQ 1 plans + the set test."""
    from repro.visa.checkpoints import checkpoint_times

    ev = _Evaluation()
    mhz = rec_freq_hz / 1e6
    for task in tasks:
        wcet = _task_wcet(
            task["workload"], task["scale"], engine, rec_freq_hz
        )
        demand = ovhd + wcet.total_seconds
        deadline = float(task["deadline"])
        if demand > deadline:
            ev.reason = (
                f"task {task['name']!r} needs {demand * 1e6:.2f} us "
                f"(WCET + switch overhead) against a "
                f"{deadline * 1e6:.2f} us deadline at {mhz:.0f} MHz"
            )
            return ev
        try:
            cps = checkpoint_times(deadline, ovhd, wcet)
        except InfeasibleError as exc:
            ev.reason = f"task {task['name']!r}: {exc}"
            return ev
        ev.rtasks.append(
            PeriodicTask(
                name=str(task["name"]),
                wcet=demand,
                period=float(task["period"]),
                deadline=deadline,
            )
        )
        ev.wcets.append(wcet)
        ev.checkpoints.append(cps)
    if policy == "rm":
        responses = rm_response_times(ev.rtasks)
        missed = [
            t.name
            for t in ev.rtasks
            if responses[t.name] > t.effective_deadline
        ]
        if missed:
            ev.reason = (
                f"RM response-time analysis fails at {mhz:.0f} MHz "
                f"recovery for: {', '.join(sorted(missed))}"
            )
            return ev
    else:
        if not edf_schedulable(ev.rtasks):
            ev.reason = (
                f"EDF density test fails at {mhz:.0f} MHz recovery "
                f"(density > 1)"
            )
            return ev
    ev.feasible = True
    return ev


def _simulation_check(
    rtasks: list[PeriodicTask], policy: str
) -> tuple[JSONDict | None, float | None, dict[str, float]]:
    """Discrete-event cross-check over one hyperperiod, when tractable.

    Returns ``(summary, hyperperiod_seconds, worst_responses)``; the
    summary and responses are empty when the hyperperiod blows the cap
    or the job count would be intractable (the analytic verdict stands
    alone — the decision records *that* it stands alone).
    """
    from repro.rt.simulate import simulate

    try:
        horizon = hyperperiod(rtasks)
    except HyperperiodError:
        return None, None, {}
    job_count = sum(math.ceil(horizon / t.period) for t in rtasks)
    if job_count > SIM_JOB_CAP:
        return None, horizon, {}
    result = simulate(rtasks, policy=policy, horizon=horizon)
    worst = {t.name: result.worst_response(t.name) for t in rtasks}
    summary: JSONDict = {
        "policy": policy,
        "jobs": len(result.jobs),
        "all_met": result.all_met,
    }
    return summary, horizon, worst


def _smt_report(
    payload: JSONDict,
    spec_freq_hz: float,
    checkpoints: list[list[float]] | None,
) -> JSONDict:
    """First-order SMT co-scheduling analysis (paper §1.1 / §8).

    The RT thread keeps a ``1/(1 + alpha*n)`` share of every bandwidth
    resource; its speculative execution time stretches by the inverse.
    Contention can only cause *checkpoint* misses — recovery idles the
    background threads and restores the full guarantee — so this report
    never gates admissibility; it predicts whether speculation (and so
    the power win) survives the co-schedule, and how much bandwidth the
    background threads can harvest.
    """
    threads = int(payload["background_threads"])
    alpha = float(payload["alpha"])
    rt_share = 1.0 / (1.0 + alpha * threads)
    spec_busy = 0.0
    viable = True
    for index, task in enumerate(payload["tasks"]):
        wcet_spec = _task_wcet(
            task["workload"], task["scale"], payload["engine"], spec_freq_hz
        )
        est_spec = wcet_spec.total_seconds / AET_SCALE_RATIO / rt_share
        spec_busy += est_spec / float(task["period"])
        if checkpoints is not None and est_spec > checkpoints[index][-1]:
            viable = False
    harvestable = spec_busy * (1.0 - rt_share) + max(0.0, 1.0 - spec_busy)
    return {
        "background_threads": threads,
        "alpha": alpha,
        "rt_share": rt_share,
        "spec_busy_fraction": min(1.0, spec_busy),
        "harvestable_share": max(0.0, min(1.0, harvestable)),
        "speculation_viable": viable if checkpoints is not None else None,
    }


def decide(payload: JSONDict) -> JSONDict:
    """The admission decision for one *normalized* payload.

    Pure and deterministic: equal payloads produce byte-identical
    decisions (and therefore equal ``digest`` fields) in any process.
    """
    from repro.experiments.common import OVHD
    from repro.visa.checkpoints import watchdog_increments
    from repro.visa.dvs import DVSTable

    tasks: list[JSONDict] = payload["tasks"]
    policy: str = payload["policy"]
    engine: str = payload["engine"]
    table = DVSTable.xscale()
    settings = list(table)
    spec = table.highest

    top = _evaluate(tasks, policy, engine, spec.freq_hz, OVHD)
    if not top.feasible:
        decision = _render(
            payload, admissible=False, reason=top.reason, spec=spec,
            rec=None, evaluation=top, responses={}, simulated=None,
            hyperperiod_s=None, ovhd=OVHD,
        )
        return _seal(payload, decision)

    # Lowest feasible recovery setting.  Feasibility is monotone in
    # frequency for every practical WCET curve (cycles shrink in
    # seconds as the clock rises), so a binary search suffices; its
    # invariant keeps ``hi`` verified-feasible, so even a non-monotone
    # curve yields a safe (merely suboptimal) setting.
    evaluations: dict[int, _Evaluation] = {len(settings) - 1: top}
    lo, hi = 0, len(settings) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        ev = _evaluate(tasks, policy, engine, settings[mid].freq_hz, OVHD)
        evaluations[mid] = ev
        if ev.feasible:
            hi = mid
        else:
            lo = mid + 1
    rec = settings[hi]
    chosen = evaluations[hi]

    simulated, horizon, worst = _simulation_check(chosen.rtasks, policy)
    responses: dict[str, float] = {}
    if policy == "rm":
        responses = rm_response_times(chosen.rtasks)
    elif worst:
        responses = worst

    plans: list[JSONDict] = []
    for index, task in enumerate(tasks):
        cps = chosen.checkpoints[index]
        plans.append(
            {
                "checkpoints": cps,
                "watchdog_increments": watchdog_increments(
                    cps, spec.freq_hz
                ),
            }
        )

    decision = _render(
        payload, admissible=True, reason=None, spec=spec, rec=rec,
        evaluation=chosen, responses=responses, simulated=simulated,
        hyperperiod_s=horizon, ovhd=OVHD, plans=plans,
    )
    return _seal(payload, decision)


def _render(
    payload: JSONDict,
    *,
    admissible: bool,
    reason: str | None,
    spec: Any,
    rec: Any,
    evaluation: _Evaluation,
    responses: dict[str, float],
    simulated: JSONDict | None,
    hyperperiod_s: float | None,
    ovhd: float,
    plans: list[JSONDict] | None = None,
) -> JSONDict:
    """Assemble the JSON decision (no digests yet)."""
    engine: str = payload["engine"]
    task_rows: list[JSONDict] = []
    for index, task in enumerate(payload["tasks"]):
        wcet_top = _task_wcet(
            task["workload"], task["scale"], engine, spec.freq_hz
        )
        row: JSONDict = {
            "name": task["name"],
            "workload": task["workload"],
            "scale": task["scale"],
            "period_seconds": float(task["period"]),
            "deadline_seconds": float(task["deadline"]),
            "subtasks": len(wcet_top.subtasks),
            "wcet_top_seconds": wcet_top.total_seconds,
        }
        if admissible and index < len(evaluation.rtasks):
            rtask = evaluation.rtasks[index]
            wcet_rec = evaluation.wcets[index]
            response = responses.get(rtask.name)
            finite = response is not None and math.isfinite(response)
            row.update(
                {
                    "wcet_rec_seconds": wcet_rec.total_seconds,
                    "demand_seconds": rtask.wcet,
                    "utilization": rtask.utilization,
                    "response_seconds": response if finite else None,
                    "slack_seconds": (
                        rtask.effective_deadline - response
                        if finite and response is not None
                        else rtask.effective_deadline - rtask.wcet
                    ),
                    "plan": plans[index] if plans is not None else None,
                }
            )
        else:
            row.update(
                {
                    "wcet_rec_seconds": None,
                    "demand_seconds": None,
                    "utilization": wcet_top.total_seconds
                    / float(task["period"]),
                    "response_seconds": None,
                    "slack_seconds": None,
                    "plan": None,
                }
            )
        task_rows.append(row)

    decision: JSONDict = {
        "admissible": admissible,
        "reason": reason,
        "policy": payload["policy"],
        "engine": engine,
        "ovhd_seconds": ovhd,
        "f_spec_mhz": spec.freq_hz / 1e6,
        "f_spec_volts": spec.volts,
        "f_rec_mhz": None if rec is None else rec.freq_hz / 1e6,
        "f_rec_volts": None if rec is None else rec.volts,
        "utilization": (
            utilization(evaluation.rtasks) if admissible else None
        ),
        "slack_fraction": (
            slack_fraction(evaluation.rtasks) if admissible else None
        ),
        "hyperperiod_seconds": hyperperiod_s,
        "simulated": simulated,
        "tasks": task_rows,
        "smt": _smt_report(
            payload,
            spec.freq_hz,
            evaluation.checkpoints if admissible else None,
        ),
    }
    return decision


def _seal(payload: JSONDict, decision: JSONDict) -> JSONDict:
    """Stamp the request and decision digests onto the decision."""
    decision["task_set_digest"] = task_set_digest(payload)
    blob = canonical_json({"format": FORMAT_VERSION, "decision": decision})
    decision["digest"] = hashlib.sha256(blob.encode()).hexdigest()[:24]
    return decision


# -- the digest-keyed decision cache ---------------------------------------------


def cached_decide(payload: JSONDict) -> JSONDict:
    """:func:`decide`, memoized on disk by task-set digest.

    Uses the runcache publication machinery (atomic canonical-JSON
    writes under :func:`repro.snapshot.runcache.cache_dir`, salted with
    the snapshot format version) so the CLI, service workers on the same
    cache volume, and repeated processes all share one entry per
    digest.  Under ``REPRO_NO_CACHE=1`` or ``repro admit --no-cache``
    (see :func:`repro.snapshot.runcache.cache_disabled`) it is plain
    :func:`decide`.
    """
    from repro.snapshot import runcache

    if runcache.cache_disabled():
        return decide(payload)
    digest = task_set_digest(payload)
    path = runcache.cache_dir() / f"admit-{digest}.json"
    try:
        raw = json.loads(path.read_text())
        if (
            isinstance(raw, dict)
            and raw.get("format") == FORMAT_VERSION
            and isinstance(raw.get("decision"), dict)
            and raw["decision"].get("task_set_digest") == digest
        ):
            cached: JSONDict = raw["decision"]
            return cached
    except (OSError, ValueError):
        pass
    decision = decide(payload)
    runcache.atomic_write_json(
        path, {"format": FORMAT_VERSION, "decision": decision}
    )
    return decision


def admit(payload: JSONDict) -> JSONDict:
    """Normalize a raw payload and return its (cached) decision.

    The library-facing entry point: ``repro admit`` and direct callers
    go through here; the service normalizes at the daemon and calls
    :func:`cached_decide` in the worker — both paths hash and return
    identical bytes.
    """
    return cached_decide(normalize_payload(payload))


__all__ = [
    "AET_SCALE_RATIO",
    "MAX_TASKS",
    "POLICIES",
    "SCALES",
    "admit",
    "cached_decide",
    "decide",
    "normalize_payload",
    "task_set_digest",
]

"""Frequency speculation solvers (paper §4.1–4.2, EQ 2 and EQ 4).

Conventional frequency speculation [Rotenberg 01] (EQ 2) needs safe WCETs
*on the processor that executes* — which for a complex pipeline may be
impossible to produce.  The VISA adaptation (EQ 4) replaces the recovery
terms with WCETs on the hypothetical simple pipeline, because recovery
switches to simple mode:

    sum_{j<=i} PET_{j, f_spec} + ovhd + sum_{k>=i} WCET_{k, f_rec} <= deadline

for every sub-task i (any one may be the mispredicted one).  Both solvers
search the DVS table for the feasible pair minimizing the speculative
frequency first and the recovery frequency second ("the lowest
{f_spec, f_rec} pair", §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import InfeasibleError
from repro.visa.dvs import DVSTable, Setting
from repro.wcet.analyzer import TaskWCET

WCETFn = Callable[[float], TaskWCET]


@dataclass(frozen=True)
class FrequencyPair:
    """A speculative/recovery frequency assignment."""

    spec: Setting
    rec: Setting


def lowest_safe_frequency(
    wcet_fn: WCETFn, deadline: float, table: DVSTable
) -> Setting:
    """Lowest setting whose *non-speculative* WCET meets the deadline.

    This is the explicitly-safe baseline: run the whole task at one
    frequency such that the summed sub-task WCETs fit the deadline.
    """
    for setting in table:
        if wcet_fn(setting.freq_hz).total_seconds <= deadline:
            return setting
    raise InfeasibleError(
        f"deadline {deadline * 1e6:.2f} us infeasible even at "
        f"{table.highest.freq_hz / 1e6:.0f} MHz"
    )


def _recovery_terms(
    wcet_fn: WCETFn, table: DVSTable, count: int
) -> tuple[list[Setting], Callable[[int], tuple[TaskWCET, list[float]]]]:
    """The table's settings plus a lazy per-setting ``(WCETs, tails)`` fetch.

    Within one solve ``wcet_fn`` runs at most once per setting, and
    ``tails[i]`` is ``task.tail_seconds(i)`` itself for ``i`` in
    ``0..count``, so every comparison stays bit-identical (a running
    suffix sum would round differently).
    """
    settings = list(table)
    slots: list[tuple[TaskWCET, list[float]] | None] = [None] * len(settings)

    def fetch(index: int) -> tuple[TaskWCET, list[float]]:
        slot = slots[index]
        if slot is None:
            task = wcet_fn(settings[index].freq_hz)
            tails = [task.tail_seconds(i) for i in range(count + 1)]
            slot = slots[index] = (task, tails)
        return slot

    return settings, fetch


def _eq4_feasible(
    pets_cycles: list[int],
    rec_tails: list[float],
    f_spec: float,
    deadline: float,
    ovhd: float,
) -> bool:
    prefix = 0.0
    for i in range(len(pets_cycles)):
        prefix += pets_cycles[i] / f_spec
        if prefix + ovhd + rec_tails[i] > deadline:
            return False
    return True


def solve_eq4(
    pets_cycles: list[int],
    wcet_fn: WCETFn,
    deadline: float,
    ovhd: float,
    table: DVSTable,
) -> FrequencyPair:
    """Minimum {f_spec, f_rec} satisfying EQ 4 for every sub-task.

    Args:
        pets_cycles: Per-sub-task PETs in complex-core cycles.
        wcet_fn: Frequency -> per-sub-task VISA WCETs (recovery bound).
        deadline: Task deadline, seconds.
        ovhd: Frequency/mode switch overhead, seconds.
        table: The DVS operating points.

    Raises:
        InfeasibleError: when no pair in the table is safe.
    """
    settings, fetch = _recovery_terms(wcet_fn, table, len(pets_cycles))
    for spec in settings:
        for k, rec in enumerate(settings):
            _, rec_tails = fetch(k)
            if _eq4_feasible(pets_cycles, rec_tails, spec.freq_hz, deadline, ovhd):
                return FrequencyPair(spec=spec, rec=rec)
    raise InfeasibleError(
        f"EQ 4 infeasible for deadline {deadline * 1e6:.2f} us"
    )


def _eq2_feasible(
    pets_cycles: list[int],
    wcet_spec: TaskWCET,
    rec_tails: list[float],
    f_spec: float,
    deadline: float,
    ovhd: float,
) -> bool:
    count = len(pets_cycles)
    prefix = 0.0
    for i in range(count):
        total = (
            prefix
            + wcet_spec.subtask_seconds(i)
            + ovhd
            + rec_tails[i + 1]
        )
        if total > deadline:
            return False
        prefix += pets_cycles[i] / f_spec
    return True


def solve_eq2(
    pets_cycles: list[int],
    wcet_fn: WCETFn,
    deadline: float,
    ovhd: float,
    table: DVSTable,
) -> FrequencyPair:
    """Conventional frequency speculation (EQ 2) for the safe pipeline.

    The executing pipeline is itself analyzable, so the mispredicted
    sub-task is bounded by its WCET *at the speculative frequency*; no
    mode switch exists, only a frequency switch.
    """
    settings, fetch = _recovery_terms(wcet_fn, table, len(pets_cycles))
    for j, spec in enumerate(settings):
        wcet_spec, _ = fetch(j)
        for k, rec in enumerate(settings):
            _, rec_tails = fetch(k)
            if _eq2_feasible(
                pets_cycles, wcet_spec, rec_tails, spec.freq_hz, deadline, ovhd
            ):
                return FrequencyPair(spec=spec, rec=rec)
    raise InfeasibleError(
        f"EQ 2 infeasible for deadline {deadline * 1e6:.2f} us"
    )

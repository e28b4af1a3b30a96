"""Timed binaries: parameterized WCET appended to a program (paper §1.2).

The paper's "broader implication": extend binary compatibility to *timing
safety*.  A task binary carries WCET information parameterized so any
processor complying with the same VISA can schedule it without re-running
the timing analyzer:

    "WCET would be expressed in cycles for frequency scaling, divided into
    components that scale and do not scale with frequency, and
    parameterized in terms of worst-case memory latency since the memory
    sub-system is outside the influence of processor design."

Per sub-task *k* we store an affine bound

    WCET_k(stall) <= base_k + slope_k * stall_cycles

where ``stall_cycles = ceil(f * mem_stall_ns)`` is the worst-case memory
stall at the deployment frequency.  The pair is fitted over the analyzer's
results across the whole DVS stall range and *verified* to dominate every
exact analysis in that range, so the packaged bound is safe wherever the
deployment's memory latency and frequency fall inside the declared
envelope.  A VISA fingerprint ties the numbers to the exact pipeline
specification they were derived for.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.isa.program import Program
from repro.memory.machine import mem_stall_cycles
from repro.visa.spec import VISASpec
from repro.wcet.analyzer import SubtaskWCET, TaskWCET


def visa_fingerprint(spec: VISASpec) -> str:
    """Stable identifier of a VISA timing specification."""
    ic, dc = spec.icache, spec.dcache
    return (
        f"visa-1/i{ic.size_bytes}x{ic.assoc}x{ic.block_bytes}"
        f"/d{dc.size_bytes}x{dc.assoc}x{dc.block_bytes}"
        f"/mem{spec.mem_stall_ns:g}ns/bp{spec.branch_penalty}"
    )


@dataclass
class WCETParam:
    """Affine per-sub-task WCET bound in the paper's parameterization."""

    base_cycles: int  # frequency-independent component
    stall_slope: float  # extra cycles per memory-stall cycle
    dmiss_bound: int  # worst-case D-cache misses (each costs one stall)

    def cycles(self, stall_cycles: int) -> int:
        return (
            self.base_cycles
            + math.ceil(self.stall_slope * stall_cycles)
            + self.dmiss_bound * stall_cycles
        )


@dataclass
class TimedBinary:
    """A program image plus its portable WCET annotation."""

    program: Program
    fingerprint: str
    mem_stall_ns: float
    stall_range: tuple[int, int]
    params: list[WCETParam] = field(default_factory=list)

    def wcet(self, freq_hz: float, spec: VISASpec | None = None) -> TaskWCET:
        """Per-sub-task WCETs at a deployment frequency — no analyzer run.

        Raises:
            ReproError: if ``spec`` (when given) does not match the VISA
                the annotation was derived for, or the frequency's stall
                falls outside the certified range.
        """
        if spec is not None and visa_fingerprint(spec) != self.fingerprint:
            raise ReproError(
                f"VISA mismatch: binary certified for {self.fingerprint}, "
                f"deployment is {visa_fingerprint(spec)}"
            )
        stall = mem_stall_cycles(freq_hz, self.mem_stall_ns)
        lo, hi = self.stall_range
        if not lo <= stall <= hi:
            raise ReproError(
                f"stall {stall} cycles outside certified range [{lo}, {hi}]"
            )
        task = TaskWCET(freq_hz=freq_hz, stall=stall)
        for index, param in enumerate(self.params):
            task.subtasks.append(
                SubtaskWCET(
                    index=index,
                    cycles=param.base_cycles
                    + math.ceil(param.stall_slope * stall),
                    stall=stall,
                    dmiss_bound=param.dmiss_bound,
                )
            )
        return task


def attach_wcet(
    program: Program,
    spec: VISASpec | None = None,
    dcache_bounds: list[int] | None = None,
    freq_range: tuple[float, float] = (100e6, 1e9),
) -> TimedBinary:
    """Analyze ``program`` and package portable WCET parameters.

    Fits the affine per-sub-task bound over the stall range implied by
    ``freq_range`` and verifies it dominates the exact analysis at every
    DVS-grid stall value (25 MHz steps).
    """
    spec = spec or VISASpec()
    stall_lo = spec.stall_cycles(freq_range[0])
    stall_hi = spec.stall_cycles(freq_range[1])

    grid_hz = [
        f
        for f in (freq_range[0] + 25e6 * i for i in range(10_000))
        if f <= freq_range[1] + 1
    ]
    tasks = {f: spec.wcet(program, f, dcache_bounds) for f in grid_hz}
    count = len(tasks[grid_hz[0]].subtasks)

    params: list[WCETParam] = []
    for k in range(count):
        lo_cycles = tasks[grid_hz[0]].subtasks[k].cycles
        hi_cycles = tasks[grid_hz[-1]].subtasks[k].cycles
        lo_stall = tasks[grid_hz[0]].stall
        hi_stall = tasks[grid_hz[-1]].stall
        if hi_stall == lo_stall:
            slope = 0.0
        else:
            slope = (hi_cycles - lo_cycles) / (hi_stall - lo_stall)
        base = lo_cycles - slope * lo_stall
        # Raise the intercept until the affine bound dominates every grid
        # point (analysis is near-affine in the stall, but not exactly).
        shortfall = 0
        for f in grid_hz:
            task = tasks[f]
            bound = base + slope * task.stall
            exact = task.subtasks[k].cycles
            shortfall = max(shortfall, math.ceil(exact - bound))
        dmiss = tasks[grid_hz[0]].subtasks[k].dmiss_bound
        params.append(
            WCETParam(
                base_cycles=int(math.ceil(base)) + shortfall,
                stall_slope=slope,
                dmiss_bound=dmiss,
            )
        )
    return TimedBinary(
        program=program,
        fingerprint=visa_fingerprint(spec),
        mem_stall_ns=spec.mem_stall_ns,
        stall_range=(min(stall_lo, stall_hi), max(stall_lo, stall_hi)),
        params=params,
    )


# -- serialization ---------------------------------------------------------------

def dumps(binary: TimedBinary) -> str:
    """Serialize a timed binary (program + WCET annotation) to JSON."""
    program = binary.program
    return json.dumps(
        {
            "format": "rtp32-timed-binary-1",
            "fingerprint": binary.fingerprint,
            "mem_stall_ns": binary.mem_stall_ns,
            "stall_range": list(binary.stall_range),
            "wcet": [
                {
                    "base_cycles": p.base_cycles,
                    "stall_slope": p.stall_slope,
                    "dmiss_bound": p.dmiss_bound,
                }
                for p in binary.params
            ],
            "program": {
                "words": program.words,
                "data": {str(k): v for k, v in program.data.items()},
                "symbols": program.symbols,
                "loop_bounds": {
                    str(k): v for k, v in program.loop_bounds.items()
                },
                "subtask_marks": {
                    str(k): v for k, v in program.subtask_marks.items()
                },
                "entry": program.entry,
                "text_base": program.text_base,
                "data_base": program.data_base,
            },
        }
    )


def loads(text: str) -> TimedBinary:
    """Load a timed binary produced by :func:`dumps`.

    Raises:
        ReproError: on an unknown format tag.
    """
    payload = json.loads(text)
    if payload.get("format") != "rtp32-timed-binary-1":
        raise ReproError(f"unknown binary format {payload.get('format')!r}")
    prog = payload["program"]
    program = Program(
        words=list(prog["words"]),
        data={int(k): v for k, v in prog["data"].items()},
        symbols=dict(prog["symbols"]),
        loop_bounds={int(k): v for k, v in prog["loop_bounds"].items()},
        subtask_marks={int(k): v for k, v in prog["subtask_marks"].items()},
        entry=prog["entry"],
        text_base=prog["text_base"],
        data_base=prog["data_base"],
    )
    return TimedBinary(
        program=program,
        fingerprint=payload["fingerprint"],
        mem_stall_ns=payload["mem_stall_ns"],
        stall_range=tuple(payload["stall_range"]),
        params=[
            WCETParam(
                base_cycles=entry["base_cycles"],
                stall_slope=entry["stall_slope"],
                dmiss_bound=entry["dmiss_bound"],
            )
            for entry in payload["wcet"]
        ],
    )

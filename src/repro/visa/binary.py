"""Timed binaries: parameterized WCET appended to a program (paper §1.2).

The paper's "broader implication": extend binary compatibility to *timing
safety*.  A task binary carries WCET information parameterized so any
processor complying with the same VISA can schedule it without re-running
the timing analyzer:

    "WCET would be expressed in cycles for frequency scaling, divided into
    components that scale and do not scale with frequency, and
    parameterized in terms of worst-case memory latency since the memory
    sub-system is outside the influence of processor design."

Per sub-task *k* we store the pipeline WCET as an integer line

    WCET_k(stall) = base_k + misses_k * stall

plus a worst-case D-cache miss count that costs one stall each, where
``stall = ceil(f * mem_stall_ns)`` is the worst-case memory stall at the
deployment frequency.  The line is the analyzer's range pass
(:meth:`repro.wcet.analyzer.WCETAnalyzer.stall_lines`): it *equals* the
analysis at every integer stall of the certified range, so the packaged
bound is exact, not a fit, wherever the deployment's memory latency and
frequency fall inside the declared envelope.  A program whose bound is
no line on that range (the range pass fell back; no workload program
does) gets the lowest line at or above the analysis at every integer
stall of the range instead: safe, but not exact.  A VISA fingerprint
ties the numbers to the exact pipeline specification they were derived
for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.isa.program import Program
from repro.memory.machine import mem_stall_cycles
from repro.visa.spec import VISASpec
from repro.wcet.analyzer import DVS_RANGE_HZ, SubtaskWCET, TaskWCET
from repro.wcet.envelope import Line

#: Format tag of :func:`dumps`; ``-1`` stored a fitted affine bound.
FORMAT = "rtp32-timed-binary-2"


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
    """Per-sub-task WCET in the paper's parameterization."""

    #: ``(base cycles, I-cache misses charged)``: the pipeline WCET is
    #: ``base + misses * stall``.
    line: Line
    dmiss_bound: int  # worst-case D-cache misses (each costs one stall)

    def cycles(self, stall_cycles: int) -> int:
        """Pipeline WCET cycles (D-miss padding excluded) at a stall."""
        base, misses = self.line
        return base + misses * stall_cycles


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
                    cycles=param.cycles(stall),
                    stall=stall,
                    dmiss_bound=param.dmiss_bound,
                )
            )
        return task


def attach_wcet(
    program: Program,
    spec: VISASpec | None = None,
    dcache_bounds: list[int] | None = None,
) -> TimedBinary:
    """Analyze ``program`` and package portable WCET parameters.

    The certified stall range is the DVS table's, from 100 MHz to 1 GHz
    (:data:`repro.wcet.analyzer.DVS_RANGE_HZ`).
    """
    spec = spec or VISASpec()
    lines = spec.wcet_lines(program)
    bounds = dcache_bounds or [0] * len(lines)
    return TimedBinary(
        program=program,
        fingerprint=visa_fingerprint(spec),
        mem_stall_ns=spec.mem_stall_ns,
        stall_range=tuple(spec.stall_cycles(f) for f in DVS_RANGE_HZ),
        params=[
            WCETParam(line=line, dmiss_bound=dmiss)
            for line, dmiss in zip(lines, bounds, strict=True)
        ],
    )


# -- serialization ---------------------------------------------------------------

def dumps(binary: TimedBinary) -> str:
    """Serialize a timed binary (program + WCET annotation) to JSON."""
    program = binary.program
    return json.dumps(
        {
            "format": FORMAT,
            "fingerprint": binary.fingerprint,
            "mem_stall_ns": binary.mem_stall_ns,
            "stall_range": list(binary.stall_range),
            "wcet": [
                {
                    "line": list(p.line),
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
        ReproError: on an unknown format tag, or on format 1, whose
            fitted bound this version no longer reads.
    """
    payload = json.loads(text)
    tag = payload.get("format")
    if tag == "rtp32-timed-binary-1":
        raise ReproError(
            "timed binary format rtp32-timed-binary-1 stores a fitted "
            f"bound; re-package the program with `repro pack` ({FORMAT})"
        )
    if tag != FORMAT:
        raise ReproError(f"unknown binary format {tag!r}")
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
                line=tuple(entry["line"]),
                dmiss_bound=entry["dmiss_bound"],
            )
            for entry in payload["wcet"]
        ],
    )

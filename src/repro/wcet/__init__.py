"""Static worst-case execution time analysis for the VISA pipeline.

This package reimplements the structure of the paper's timing-analysis
toolset (Figure 1, §3.3):

* control-flow graph construction from the binary (:mod:`repro.wcet.cfg`),
* loop analysis with user loop bounds (:mod:`repro.wcet.loops`),
* static I-cache analysis producing Table 2 categorizations
  (:mod:`repro.wcet.icache_static`),
* a VISA pipeline model that *shares the timing recurrence* with the
  dynamic simulator (:mod:`repro.wcet.pipeline_model`),
* a bottom-up fix-point timing tree with per-sub-task WCETs
  (:mod:`repro.wcet.analyzer`), and
* trace-based worst-case D-cache padding (:mod:`repro.wcet.dcache_pad`),
  mirroring the paper's interim approach to data caches, and
* static D-cache analysis (:mod:`repro.wcet.dcache_static`) — the paper's
  stated future work, implemented: sound input-independent miss bounds.

The headline safety invariant — WCET >= actual execution time on the
simple pipeline — is exercised extensively by the test suite.

:func:`wcet_result` is the one engine dispatch of the service's ``wcet``
job and of ``repro wcet``: the static timing tree or the bounded
model-checking oracle (:mod:`repro.wcet.mc`).  The defaults below are
the ones the ``wcet`` normalizer fills and that ``repro wcet FILE``
(which also takes assembly, so cannot go through a normalizer) reads.
"""

from __future__ import annotations

from typing import Any

from repro.wcet.analyzer import SubtaskWCET, TaskWCET, WCETAnalyzer

#: Recognized WCET engine names (CLI ``--engine``, service payloads).
ENGINES = ("static", "mc")

#: The engine of a ``wcet``/``admit`` payload that names none.
DEFAULT_ENGINE = "static"

#: The analysis clock of a ``wcet`` payload that names none, in MHz.
DEFAULT_FREQ_MHZ = 1000.0


def wcet_result(program: Any, freq_mhz: float, engine: str) -> dict[str, Any]:
    """The ``wcet`` job's result for ``program`` at ``freq_mhz``.

    A fresh analyzer per call with measured D-cache padding, bounded by
    the static timing tree or, for ``engine="mc"``, the model-checking
    oracle.
    """
    from repro.wcet.dcache_pad import measure_dcache_misses

    analyzer = WCETAnalyzer(program)
    analyzer.dcache_bounds = measure_dcache_misses(program)
    if engine == "mc":
        from repro.wcet.mc import ModelCheckEngine

        task = ModelCheckEngine(analyzer).analyze(freq_mhz * 1e6)
    else:
        task = analyzer.analyze(freq_mhz * 1e6)
    return {
        "engine": engine,
        "freq_mhz": freq_mhz,
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


__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_FREQ_MHZ",
    "ENGINES",
    "SubtaskWCET",
    "TaskWCET",
    "WCETAnalyzer",
    "wcet_result",
]


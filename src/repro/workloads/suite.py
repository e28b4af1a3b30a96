"""Benchmark registry and scale presets.

Scales:

* ``tiny`` — smallest inputs that still exercise every sub-task; used by
  the unit/integration test suite.
* ``default`` — laptop-sized inputs for the benchmark harness (the pure
  Python cycle-level simulator cannot run the paper's 70 K–2 M instruction
  tasks 200 times per configuration in reasonable time; see DESIGN.md §6).
* ``paper`` — the original C-lab input sizes, for patient users.
"""

from __future__ import annotations

from repro.workloads.base import Workload
from repro.workloads.clab import adpcm, cnt, crc, fft, fir, lms, mm, srt

_MAKERS = {
    "adpcm": adpcm.make,
    "cnt": cnt.make,
    "fft": fft.make,
    "lms": lms.make,
    "mm": mm.make,
    "srt": srt.make,
    # Extra suite members, not part of the paper's evaluation:
    "crc": crc.make,
    "fir": fir.make,
}

#: The six benchmarks the paper evaluates (Table 3); experiment drivers
#: iterate over these.
WORKLOAD_NAMES = ("adpcm", "cnt", "fft", "lms", "mm", "srt")
#: Additional C-lab-family kernels shipped for library completeness.
EXTRA_WORKLOAD_NAMES = ("crc", "fir")
#: Every workload :func:`get_workload` builds (CLI ``--workloads``,
#: service and admission payloads).
ALL_WORKLOAD_NAMES = WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES
#: Input-size presets (module docstring); the one list every CLI
#: ``--scale`` and payload ``scale`` check uses.
SCALES = ("tiny", "default", "paper")

_CACHE: dict[tuple[str, str], Workload] = {}


def get_workload(name: str, scale: str = "default") -> Workload:
    """Return (and cache) the named workload at the given scale.

    Raises:
        KeyError: for unknown names or scales.
    """
    if name not in _MAKERS:
        raise KeyError(f"unknown workload {name!r}; known: {WORKLOAD_NAMES}")
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; known: {SCALES}")
    key = (name, scale)
    if key not in _CACHE:
        _CACHE[key] = _MAKERS[name](scale)
    return _CACHE[key]


def all_workloads(scale: str = "default") -> list[Workload]:
    """All six C-lab workloads at the given scale."""
    return [get_workload(name, scale) for name in WORKLOAD_NAMES]

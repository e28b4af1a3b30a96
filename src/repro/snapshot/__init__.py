"""Simulation-state snapshot subsystem.

Deterministic, versioned capture/restore of the full simulation state —
machine (memory, caches, MMIO), core (registers, clock, counters,
predictors), PET histories, and the runtime's frequency/checkpoint
configuration — plus the two facilities built on top of it:

* :mod:`repro.snapshot.runcache` — the one on-disk memo every cache
  entry goes through, and the run-level result cache memoizing whole
  ``VISARuntime.run()`` / ``SimpleFixedRuntime.run()`` outputs;
* :mod:`repro.snapshot.warmup` — warm-up prefix forking for experiment
  cells that share a bit-identical pre-flush prefix (Figure 4).

See :mod:`repro.snapshot.state` for the encoding contract and the
format-version salt that invalidates everything at once.
"""

from repro.snapshot.state import (
    FORMAT_VERSION,
    canonical_json,
    program_digest,
    snapshot_digest,
)

__all__ = [
    "FORMAT_VERSION",
    "canonical_json",
    "program_digest",
    "snapshot_digest",
]

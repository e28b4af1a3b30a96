"""Experiment drivers regenerating the paper's evaluation (§5–6).

One module per table/figure:

* :mod:`repro.experiments.table3` — benchmark characteristics, WCET vs
  actual times, simple/complex speedups.
* :mod:`repro.experiments.figure2` — power savings of the VISA-compliant
  complex processor vs ``simple-fixed``, tight and loose deadlines, with
  and without 10 % standby power.
* :mod:`repro.experiments.figure3` — same with a 1.5x clock-frequency
  advantage for ``simple-fixed``.
* :mod:`repro.experiments.figure4` — savings under induced misprediction
  rates of 10/20/30 % (caches + predictor flushed at task start).

Each module exposes ``run(...) -> rows`` and ``main()`` for the command
line; ``benchmarks/bench_table3.py``, ``bench_figure2/3/4.py`` and
``bench_ablations.py`` wrap the same entry points and assert the
paper's claims, and ``perfbench``'s ``sim-cells`` workload times their
cells.  Scale and instance counts default to quick settings and are
overridable via ``REPRO_SCALE`` / ``REPRO_INSTANCES`` (see DESIGN.md §6).
:data:`EXPERIMENT_NAMES` is the one list of drivers: ``repro
experiment`` and the service's ``experiment`` job kind both take it.
"""

from __future__ import annotations

import importlib
from types import ModuleType

#: Experiment driver module names, in the order the CLI lists them.
EXPERIMENT_NAMES = ("table3", "figure2", "figure3", "figure4", "ablations")


def experiment_module(name: str) -> ModuleType:
    """Import one experiment driver by name (drivers load lazily)."""
    return importlib.import_module(f"{__name__}.{name}")

"""Bounded model-checking WCET engine (the differential soundness oracle).

The package computes *exact* per-sub-task WCETs on small/medium programs
by exhaustively exploring the CFG × pipeline × cache × value state space
(:mod:`repro.wcet.mc.engine`), and diffs them against the shipped static
analyzer (:mod:`repro.wcet.mc.diff`): ``static >= mc >= observed`` must
hold per sub-task, or the static analyzer has a soundness bug.

Engine selection (``repro wcet --engine``, the service's ``wcet`` and
``admit`` job kinds) is :data:`repro.wcet.ENGINES`, re-exported here;
:func:`repro.wcet.wcet_result` dispatches a ``wcet`` job to this engine.
"""

from __future__ import annotations

from repro.wcet import ENGINES
from repro.wcet.mc.diff import (
    DiffReport,
    SubtaskGap,
    diff_program,
    observed_complex,
    observed_inorder,
)
from repro.wcet.mc.engine import MCState, MCStats, ModelCheckEngine

__all__ = [
    "DiffReport",
    "ENGINES",
    "MCState",
    "MCStats",
    "ModelCheckEngine",
    "SubtaskGap",
    "diff_program",
    "observed_complex",
    "observed_inorder",
]

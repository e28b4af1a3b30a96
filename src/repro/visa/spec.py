"""The virtual simple architecture specification (paper §3.1, Table 1).

A :class:`VISASpec` is the contract between three parties:

* the **static timing analyzer**, which bounds WCET against it,
* the **explicitly-safe processor** (``simple-fixed``), which implements
  it literally, and
* the **complex processor**, whose simple mode must match its timing.

Keeping it in one object makes the "same VISA" relationship explicit and
lets tests verify all three parties agree.

:meth:`VISASpec.wcet` is the one place the runtimes, experiment set-up,
admission control and timed binaries get their WCETs from.  It shares
one *private* analyzer per ``(spec, program)`` across the whole process,
so each memory-stall count is analyzed once, not once per runtime.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.isa.program import Program
from repro.memory.cache import CacheConfig
from repro.memory.machine import Machine, MachineConfig, mem_stall_cycles
from repro.pipelines.inorder_engine import BRANCH_PENALTY
from repro.snapshot.state import program_digest
from repro.wcet.analyzer import TaskWCET, WCETAnalyzer

#: Private analyzers behind :meth:`VISASpec.wcet`, keyed by
#: ``(spec, program_digest(program))``, least recently used first.  Each
#: keeps its own per-stall result cache and is never handed to a caller,
#: so no caller-side mutation (loop bounds, ``run_cls``, D-cache bounds)
#: can leak into a shared result.
_SHARED: "OrderedDict[tuple[VISASpec, str], WCETAnalyzer]" = OrderedDict()
_SHARED_MAX = 64
_SHARED_LOCK = threading.Lock()


def clear_shared_wcet() -> None:
    """Drop every shared analyzer (tests use this for a cold start)."""
    with _SHARED_LOCK:
        _SHARED.clear()


@dataclass(frozen=True)
class VISASpec:
    """Timing specification of the hypothetical simple pipeline.

    Defaults are Table 1: 64 KB / 4-way / 64 B L1 caches with 1-cycle hits,
    100 ns worst-case memory stall, MIPS R10K execution latencies (encoded
    in :mod:`repro.isa.opcodes`), six pipeline stages, scalar in-order
    issue, BTFN static branch prediction with a 4-cycle misprediction
    penalty.
    """

    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    mem_stall_ns: float = 100.0
    branch_penalty: int = BRANCH_PENALTY

    def machine_config(self) -> MachineConfig:
        """Cache geometry for a machine implementing this VISA."""
        return MachineConfig(icache=self.icache, dcache=self.dcache)

    def machine(self, program: Program) -> Machine:
        """A fresh machine (memory + caches + devices) for ``program``."""
        return Machine(program, self.machine_config())

    def analyzer(self, program: Program) -> WCETAnalyzer:
        """A WCET analyzer bound to this specification."""
        return WCETAnalyzer(
            program, cache_config=self.icache, mem_stall_ns=self.mem_stall_ns
        )

    def wcet(
        self,
        program: Program,
        freq_hz: float,
        dcache_bounds: list[int] | None = None,
    ) -> TaskWCET:
        """Per-sub-task WCETs of ``program`` at ``freq_hz`` on this VISA.

        Same result as an :meth:`analyzer` with ``dcache_bounds`` set,
        but the pipeline analysis comes from the process-wide shared
        analyzer; the D-cache padding is applied per call.
        """
        key = (self, program_digest(program))
        # Held across the analysis too: an analyzer's memo tables are not
        # safe to fill from two threads at once (and the GIL serializes
        # the pure-Python analysis anyway).
        with _SHARED_LOCK:
            analyzer = _SHARED.get(key)
            if analyzer is None:
                analyzer = _SHARED[key] = self.analyzer(program)
                if len(_SHARED) > _SHARED_MAX:
                    _SHARED.popitem(last=False)
            else:
                _SHARED.move_to_end(key)
            task = analyzer.analyze(freq_hz)
        if dcache_bounds is not None:
            for sub in task.subtasks:
                sub.dmiss_bound = dcache_bounds[sub.index]
        return task

    def stall_cycles(self, freq_hz: float) -> int:
        """Worst-case memory stall in cycles at ``freq_hz``."""
        return mem_stall_cycles(freq_hz, self.mem_stall_ns)

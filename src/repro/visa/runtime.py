"""The VISA run-time system (paper §2, §4, §5.1).

Two runtimes execute a periodic hard real-time task for N consecutive
instances (the paper uses 200):

* :class:`VISARuntime` — the complex processor under the VISA framework:
  run speculatively in complex mode at ``f_spec`` with the watchdog armed;
  on a missed checkpoint, drain, switch to the recovery frequency *and*
  simple mode, and finish safely.  PETs are re-evaluated every tenth task
  from the AET histories the sub-task snippets record, and EQ 4 yields new
  frequencies, checkpoints, and watchdog increments.
* :class:`SimpleFixedRuntime` — the explicitly-safe processor: either a
  fixed WCET-safe frequency, or conventional frequency speculation (EQ 2)
  when that lowers the frequency (§6.2), with misprediction detection at
  sub-task completion boundaries.

Both produce per-phase records (mode, frequency, voltage, cycles, event
counters) that the power model converts to energy; both *hard-fail* with
:class:`~repro.errors.DeadlineMissError` if a deadline is ever missed —
the entire point of the framework is that this never happens, and the test
suite leans on it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import (
    DeadlineMissError,
    InfeasibleError,
    ReproError,
    SnapshotError,
)
from repro.isa import layout
from repro.memory.machine import Machine
from repro.pipelines.inorder import InOrderCore
from repro.pipelines.ooo.core import ComplexCore
from repro.pipelines.state import CoreState
from repro.visa.checkpoints import CheckpointPlan, build_plan
from repro.visa.dvs import DVSTable, Setting
from repro.visa.pet import HistogramPET, LastNPET
from repro.visa.spec import VISASpec
from repro.visa.speculation import (
    FrequencyPair,
    lowest_safe_frequency,
    solve_eq2,
    solve_eq4,
)
from repro.snapshot.state import FORMAT_VERSION
from repro.wcet.analyzer import TaskWCET
from repro.wcet.dcache_pad import calibrate_dcache_bounds
from repro.workloads.base import Workload

#: Task instances actually simulated per runtime kind since process start
#: (or the caller's last ``SIM_COUNTS.clear()``).  Benchmarks and tests use
#: this to verify that warm-up prefix forking really skips simulation.
SIM_COUNTS = Counter()


@dataclass
class RuntimeConfig:
    """Knobs of the run-time system.

    The defaults mirror the paper where it gives values (re-evaluation
    every 10th task, last-10 PET window) and use scaled-down values where
    it does not (switch overhead, instance count) — see DESIGN.md §6.
    """

    deadline: float
    period: float | None = None  # defaults to the deadline
    instances: int = 40
    ovhd: float = 2e-6  # frequency/voltage + mode switch overhead, seconds
    reeval_period: int = 10
    pet_window: int = 10
    dvs_software_cycles: int = 2000  # charged per re-evaluation
    verify_outputs: bool = True
    #: Headroom added to PETs before solving EQ 2/EQ 4.  The sub-task
    #: snippets arm the watchdog a few instructions after resetting the
    #: cycle counter, so a PET with zero slack can fire the watchdog even
    #: when the sub-task hits its prediction exactly.  Missing a checkpoint
    #: is always *safe* (recovery guarantees the deadline) but costs power,
    #: so a little margin pays for itself.
    pet_margin: float = 0.02
    pet_slack_cycles: int = 32
    #: PET selection policy (§4.3): "lastn" (the paper's experiments) or
    #: "histogram" (probabilistic misprediction-rate targeting).
    pet_policy: str = "lastn"
    histogram_rate: float = 0.0
    #: §4.3: AETs of a mispredicted task's simple-mode tail are scaled
    #: down by the assumed complex/simple speed ratio before entering the
    #: history, so the PET feedback loop keeps adapting after recoveries.
    aet_scale_ratio: float = 4.0
    #: Re-solve EQ 4 immediately after a recovery instead of waiting for
    #: the periodic tenth-task re-evaluation.  The paper's tasks are large
    #: enough that one spec phase re-trains the dynamic predictors, so its
    #: strictly periodic schedule never mattered; at our scaled task sizes
    #: a fired instance would otherwise echo-fire until the next periodic
    #: re-evaluation (DESIGN.md §5b).
    reeval_after_recovery: bool = True

    def __post_init__(self) -> None:
        if self.period is None:
            self.period = self.deadline
        if self.period < self.deadline:
            raise ValueError("period must be >= deadline")


@dataclass
class Phase:
    """One homogeneous execution segment for power accounting."""

    kind: str  # "spec" | "recovery" | "idle" | "switch" | "dvs_sw"
    mode: str  # "complex" | "simple_mode" | "simple_fixed" | "idle"
    freq_hz: float
    volts: float
    cycles: int
    seconds: float
    counters: Counter = field(default_factory=Counter)


@dataclass
class TaskRun:
    """Outcome of one task instance."""

    index: int
    phases: list[Phase]
    mispredicted: bool
    completion_seconds: float
    deadline: float
    f_spec: Setting
    f_rec: Setting

    @property
    def deadline_met(self) -> bool:
        return self.completion_seconds <= self.deadline + 1e-12


class _RuntimeBase:
    """Shared scaffolding: program setup, AET plumbing, accounting.

    Subclasses define ``kind`` (snapshot/statistics identity) and
    ``self.core`` (their pipeline) before any shared method runs.
    """

    kind = "base"

    def __init__(
        self,
        workload: Workload,
        config: RuntimeConfig,
        spec: VISASpec | None = None,
        table: DVSTable | None = None,
        dcache_bounds: list[int] | None = None,
    ):
        self.workload = workload
        self.config = config
        self.spec = spec or VISASpec()
        self.table = table or DVSTable.xscale()
        self.program = workload.program
        self.dcache_bounds = (
            dcache_bounds
            if dcache_bounds is not None
            else calibrate_dcache_bounds(workload)
        )
        self.num_subtasks = max(1, self.program.num_subtasks)
        if config.pet_policy == "lastn":
            self.pet = LastNPET(self.num_subtasks, window=config.pet_window)
        elif config.pet_policy == "histogram":
            self.pet = HistogramPET(
                self.num_subtasks, target_rate=config.histogram_rate
            )
        else:
            raise ValueError(f"unknown pet_policy {config.pet_policy!r}")
        self.machine = self.spec.machine(self.program)
        self._incr_base = self.program.address_of(layout.VISA_INCR_SYMBOL)
        self._aet_base = self.program.address_of(layout.VISA_AET_SYMBOL)

    def padded_pets(self) -> list[int]:
        """Current PETs with the configured safety margin applied."""
        return [
            int(p * (1.0 + self.config.pet_margin)) + self.config.pet_slack_cycles
            for p in self.pet.predict()
        ]

    # -- helpers ---------------------------------------------------------------

    def wcet_fn(self, freq_hz: float) -> TaskWCET:
        """Padded VISA WCETs at ``freq_hz`` (the process-wide shared analysis)."""
        return self.spec.wcet(self.program, freq_hz, self.dcache_bounds)

    def safe_setting(self) -> Setting:
        """Lowest non-speculative safe setting, leaving room for ovhd."""
        budget = self.config.deadline - self.config.ovhd
        return lowest_safe_frequency(self.wcet_fn, budget, self.table)

    def write_increments(self, increments: list[int]) -> None:
        self.machine.write_data_words(self._incr_base, increments)

    def read_aets(self) -> list[int]:
        return self.machine.read_data_words(self._aet_base, self.num_subtasks)

    def reset_task(self, state: CoreState, seed: int) -> dict[str, list]:
        inputs = self.workload.generate_inputs(seed)
        self.workload.apply_inputs(self.machine, inputs)
        state.pc = self.program.entry
        state.halted = False
        return inputs

    def snapshot(self, state: CoreState) -> tuple[int, Counter]:
        return state.now, Counter(state.counters)

    def phase_from(
        self,
        state: CoreState,
        before: tuple[int, Counter],
        kind: str,
        mode: str,
        setting: Setting,
    ) -> Phase:
        cycles = state.now - before[0]
        counters = state.counters - before[1]
        return Phase(
            kind=kind,
            mode=mode,
            freq_hz=setting.freq_hz,
            volts=setting.volts,
            cycles=cycles,
            seconds=cycles / setting.freq_hz,
            counters=counters,
        )

    def idle_phase(self, seconds: float) -> Phase:
        lowest = self.table.lowest
        cycles = int(seconds * lowest.freq_hz)
        return Phase(
            kind="idle",
            mode="idle",
            freq_hz=lowest.freq_hz,
            volts=lowest.volts,
            cycles=cycles,
            seconds=seconds,
            counters=Counter(),
        )

    def dvs_software_phase(self, setting: Setting) -> Phase:
        cycles = self.config.dvs_software_cycles
        return Phase(
            kind="dvs_sw",
            mode="simple_fixed",
            freq_hz=setting.freq_hz,
            volts=setting.volts,
            cycles=cycles,
            seconds=cycles / setting.freq_hz,
            counters=Counter(
                {"fetch": cycles, "icache": cycles, "fu": cycles, "regread": cycles}
            ),
        )

    def finish_run(
        self,
        index: int,
        phases: list[Phase],
        busy_seconds: float,
        mispredicted: bool,
        pair: FrequencyPair,
        inputs: dict[str, list],
    ) -> TaskRun:
        if busy_seconds > self.config.deadline + 1e-12:
            raise DeadlineMissError(
                f"{self.workload.name} instance {index}: finished at "
                f"{busy_seconds * 1e6:.2f} us > deadline "
                f"{self.config.deadline * 1e6:.2f} us"
            )
        if self.config.verify_outputs:
            self.workload.check_outputs(self.machine, inputs, rel_tol=1e-9)
        slack = self.config.period - busy_seconds
        if slack > 0:
            phases.append(self.idle_phase(slack))
        return TaskRun(
            index=index,
            phases=phases,
            mispredicted=mispredicted,
            completion_seconds=busy_seconds,
            deadline=self.config.deadline,
            f_spec=pair.spec,
            f_rec=pair.rec,
        )

    # -- whole-run drivers -------------------------------------------------------

    def run_span(
        self, start: int, stop: int, flush_instances: set[int] = frozenset()
    ) -> list[TaskRun]:
        """Execute task instances ``[start, stop)``.

        Instance indices are absolute (they seed the input generator and
        drive the re-evaluation schedule), so a runtime restored from a
        warm-up snapshot resumes with ``start`` = the snapshot's instance
        count and produces exactly what a cold run would from that point.
        """
        return [
            self.run_instance(i, flush=i in flush_instances)
            for i in range(start, stop)
        ]

    def run(self, flush_instances: set[int] = frozenset()) -> list[TaskRun]:
        """Execute all configured task instances."""
        return self.run_span(0, self.config.instances, flush_instances)

    # -- snapshot subsystem ------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Versioned JSON-able capture of the full inter-instance state.

        Valid only at an instance boundary (both pipelines drain there;
        per-segment timing structures never persist across instances, so
        machine + core + policy state is the *complete* state).
        """
        snap = {
            "format": FORMAT_VERSION,
            "kind": self.kind,
            "machine": self.machine.dump_state(),
            "core_state": self.core.state.dump_state(),
            "freq_hz": self.core.freq_hz,
            "pet": self.pet.dump_state(),
            "pair": [
                [self.pair.spec.freq_hz, self.pair.spec.volts],
                [self.pair.rec.freq_hz, self.pair.rec.volts],
            ],
        }
        snap.update(self._extra_state())
        return snap

    def restore_state(self, snap: dict) -> None:
        """Restore a :meth:`snapshot_state` payload into this runtime.

        The runtime must have been constructed for the same workload and
        configuration; the payload supplies the mutable state only.
        """
        if snap.get("format") != FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format {snap.get('format')!r} != {FORMAT_VERSION}"
            )
        if snap.get("kind") != self.kind:
            raise SnapshotError(
                f"snapshot kind {snap.get('kind')!r} != {self.kind!r}"
            )
        self.machine.load_state(snap["machine"])
        self.core.state.load_state(snap["core_state"])
        self.core.set_frequency(float(snap["freq_hz"]))
        self.pet.load_state(snap["pet"])
        (spec_f, spec_v), (rec_f, rec_v) = snap["pair"]
        self.pair = FrequencyPair(
            spec=Setting(freq_hz=float(spec_f), volts=float(spec_v)),
            rec=Setting(freq_hz=float(rec_f), volts=float(rec_v)),
        )
        self._load_extra_state(snap)

    def _extra_state(self) -> dict:
        return {}

    def _load_extra_state(self, snap: dict) -> None:
        pass


class VISARuntime(_RuntimeBase):
    """Complex processor executing a hard real-time task under VISA."""

    kind = "visa"

    def __init__(self, workload, config, spec=None, table=None,
                 dcache_bounds=None):
        super().__init__(workload, config, spec, table, dcache_bounds)
        self.core = ComplexCore(self.machine, freq_hz=self.table.highest.freq_hz)
        # Warm-up configuration: before any PET history exists, run at the
        # highest setting for both frequencies.  A high recovery frequency
        # keeps the checkpoints as late as possible, so the complex pipeline
        # has the full WCET budget to prove itself.
        top = self.table.highest
        self.pair = FrequencyPair(spec=top, rec=top)
        self.plan: CheckpointPlan = build_plan(
            self.config.deadline, self.config.ovhd,
            self.wcet_fn(top.freq_hz), top.freq_hz,
        )

    def reevaluate(self) -> None:
        """Re-run EQ 4 + EQ 1 from the current PET histories (§4.3).

        If the histories have degenerated to the point that EQ 4 has no
        feasible pair (e.g. PETs inflated by a burst of flushed tasks),
        the previous plan stays in force — it was proven feasible when it
        was built, and safety never depended on PET quality anyway.
        """
        if not self.pet.ready():
            return
        pets = self.padded_pets()
        try:
            pair = solve_eq4(
                pets, self.wcet_fn, self.config.deadline, self.config.ovhd,
                self.table,
            )
        except InfeasibleError:
            return
        self.pair = pair
        self.plan = build_plan(
            self.config.deadline,
            self.config.ovhd,
            self.wcet_fn(self.pair.rec.freq_hz),
            self.pair.spec.freq_hz,
        )

    def run_instance(self, index: int, flush: bool = False) -> TaskRun:
        SIM_COUNTS[self.kind] += 1
        phases: list[Phase] = []
        if index and index % self.config.reeval_period == 0:
            self.reevaluate()
            phases.append(self.dvs_software_phase(self.pair.spec))
        inputs = self.reset_task(self.core.state, index)
        self.write_increments(self.plan.increments)
        if flush:
            self.machine.flush_caches_and_predictor()
            self.core.flush_predictors()

        self.machine.mmio.exceptions_masked = False
        self.core.set_frequency(self.pair.spec.freq_hz)
        before = self.snapshot(self.core.state)
        result = self.core.run()
        phases.append(
            self.phase_from(self.core.state, before, "spec", "complex", self.pair.spec)
        )
        busy = phases[-1].seconds
        mispredicted = result.reason == "watchdog"
        if mispredicted:
            # Which sub-task missed (captured before recovery's snippets
            # advance the mark counter further).
            fired_subtask = max(0, self.machine.mmio.wd_marks - 1)
            # Missed checkpoint: drain, switch frequency and mode (§2.2).
            self.machine.mmio.exceptions_masked = True
            busy += self.config.ovhd
            self.core.set_frequency(self.pair.rec.freq_hz)
            simple = self.core.simple_mode_core()
            before = self.snapshot(self.core.state)
            recovery = simple.run()
            if recovery.reason != "halt":
                raise ReproError(
                    f"recovery did not complete: {recovery.reason}"
                )
            phases.append(
                self.phase_from(
                    self.core.state, before, "recovery", "simple_mode",
                    self.pair.rec,
                )
            )
            busy += phases[-1].seconds
            # §4.3: record the history anyway, scaling the sub-tasks that
            # ran (partly) in simple mode down by the mode speed ratio —
            # without this the PET feedback loop goes blind after a
            # recovery and cold-predictor instances keep firing.
            for k, aet in enumerate(self.read_aets()):
                if k >= fired_subtask:
                    aet = int(aet / self.config.aet_scale_ratio)
                self.pet.record(k, aet)
            if self.config.reeval_after_recovery:
                self.reevaluate()
        else:
            if result.reason != "halt":
                raise ReproError(f"unexpected stop: {result.reason}")
            self.machine.mmio.exceptions_masked = True
            for k, aet in enumerate(self.read_aets()):
                self.pet.record(k, aet)
        return self.finish_run(index, phases, busy, mispredicted, self.pair, inputs)

    def _extra_state(self) -> dict:
        return {
            "gshare": self.core.gshare.dump_state(),
            "indirect": self.core.indirect.dump_state(),
            "plan": self.plan.dump_state(),
        }

    def _load_extra_state(self, snap: dict) -> None:
        self.core.gshare.load_state(snap["gshare"])
        self.core.indirect.load_state(snap["indirect"])
        self.plan = CheckpointPlan.from_state(snap["plan"])


class SimpleFixedRuntime(_RuntimeBase):
    """Explicitly-safe processor baseline (§5.2, §6.2).

    Uses conventional frequency speculation (EQ 2) only when it lowers the
    frequency below the non-speculative safe setting, exactly as the paper
    evaluates it.
    """

    kind = "simple"

    def __init__(self, workload, config, spec=None, table=None,
                 dcache_bounds=None, allow_speculation: bool = True):
        super().__init__(workload, config, spec, table, dcache_bounds)
        self.core = InOrderCore(self.machine, freq_hz=self.table.highest.freq_hz)
        self.allow_speculation = allow_speculation
        safe = self.safe_setting()
        self.safe = safe
        self.pair = FrequencyPair(spec=safe, rec=safe)
        self.speculating = False
        marks = self.program.subtask_boundaries()
        self._breaks = frozenset(marks[1:]) if len(marks) > 1 else frozenset()

    def reevaluate(self) -> None:
        if not (self.allow_speculation and self.pet.ready()):
            return
        pets = self.padded_pets()
        try:
            pair = solve_eq2(
                pets, self.wcet_fn, self.config.deadline, self.config.ovhd,
                self.table,
            )
        except InfeasibleError:
            return
        # Speculate only when it actually reduces frequency (§6.2).
        if pair.spec.freq_hz < self.safe.freq_hz:
            self.pair = pair
            self.speculating = True
        else:
            self.pair = FrequencyPair(spec=self.safe, rec=self.safe)
            self.speculating = False

    def run_instance(self, index: int, flush: bool = False) -> TaskRun:
        SIM_COUNTS[self.kind] += 1
        phases: list[Phase] = []
        if index and index % self.config.reeval_period == 0:
            self.reevaluate()
            phases.append(self.dvs_software_phase(self.pair.spec))
        inputs = self.reset_task(self.core.state, index)
        # Watchdog stays masked: EQ 2 detects mispredictions at sub-task
        # completion boundaries by comparing against the PET budget.
        self.write_increments([0x3FFF_FFFF] * self.num_subtasks)
        if flush:
            self.machine.flush_caches_and_predictor()

        self.core.drain()
        mispredicted = False
        busy = 0.0
        if not self.speculating:
            self.core.set_frequency(self.pair.spec.freq_hz)
            before = self.snapshot(self.core.state)
            result = self.core.run()
            if result.reason != "halt":
                raise ReproError(f"unexpected stop: {result.reason}")
            phases.append(
                self.phase_from(
                    self.core.state, before, "spec", "simple_fixed", self.pair.spec
                )
            )
            busy = phases[-1].seconds
        else:
            pets = self.padded_pets()
            self.core.set_frequency(self.pair.spec.freq_hz)
            before = self.snapshot(self.core.state)
            completed = 0
            while True:
                result = self.core.run(break_addrs=self._breaks)
                segment_done = result.reason == "halt"
                phase = self.phase_from(
                    self.core.state, before, "spec", "simple_fixed", self.pair.spec
                )
                if segment_done:
                    phases.append(phase)
                    busy += phase.seconds
                    break
                # A sub-task just completed (its successor's snippet has not
                # run yet, so the live cycle counter still holds its AET).
                live_aet = self.machine.mmio.cycle_count(self.core.state.now)
                completed += 1
                if live_aet > pets[completed - 1]:
                    # Misprediction: switch to the recovery frequency and
                    # finish the remaining sub-tasks non-speculatively.
                    phases.append(phase)
                    busy += phase.seconds + self.config.ovhd
                    mispredicted = True
                    self.core.drain()
                    self.core.set_frequency(self.pair.rec.freq_hz)
                    before = self.snapshot(self.core.state)
                    result = self.core.run()
                    if result.reason != "halt":
                        raise ReproError(f"unexpected stop: {result.reason}")
                    rec_phase = self.phase_from(
                        self.core.state, before, "recovery", "simple_fixed",
                        self.pair.rec,
                    )
                    phases.append(rec_phase)
                    busy += rec_phase.seconds
                    break
        if not mispredicted:
            for k, aet in enumerate(self.read_aets()):
                self.pet.record(k, aet)
        return self.finish_run(index, phases, busy, mispredicted, self.pair, inputs)

    def _extra_state(self) -> dict:
        return {"speculating": self.speculating}

    def _load_extra_state(self, snap: dict) -> None:
        self.speculating = bool(snap["speculating"])
        # Pipeline-timing state never survives an instance boundary
        # (run_instance drains first), but reset it anyway so a restored
        # runtime is indistinguishable from a cold one by inspection.
        self.core.drain()

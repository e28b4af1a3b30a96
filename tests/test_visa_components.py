"""Unit tests for the VISA building blocks: DVS, EQ 1, EQ 2/4, PETs."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InfeasibleError
from repro.visa.checkpoints import build_plan, checkpoint_times, watchdog_increments
from repro.visa.dvs import DVSTable, Setting
from repro.visa.pet import HistogramPET, LastNPET
from repro.visa.speculation import (
    lowest_safe_frequency,
    solve_eq2,
    solve_eq4,
)
from repro.wcet.analyzer import SubtaskWCET, TaskWCET


def make_wcet(freq_hz, subtask_cycles):
    stall = math.ceil(freq_hz * 100e-9)
    task = TaskWCET(freq_hz=freq_hz, stall=stall)
    for i, cycles in enumerate(subtask_cycles):
        task.subtasks.append(SubtaskWCET(index=i, cycles=cycles, stall=stall))
    return task


def synthetic_wcet_fn(core_cycles, stalls_per_subtask):
    """WCET(f) = core/f + stalls * 100ns, like the real analyzer."""

    def fn(freq_hz):
        cycles = [
            int(core + stall_events * math.ceil(freq_hz * 100e-9))
            for core, stall_events in zip(core_cycles, stalls_per_subtask)
        ]
        return make_wcet(freq_hz, cycles)

    return fn


class TestDVSTable:
    def test_xscale_has_37_settings(self):
        table = DVSTable.xscale()
        assert len(table) == 37
        assert table.lowest.freq_hz == 100e6
        assert table.lowest.volts == pytest.approx(0.70)
        assert table.highest.freq_hz == 1e9
        assert table.highest.volts == pytest.approx(1.78)

    def test_increments(self):
        table = DVSTable.xscale()
        freqs = [s.freq_hz for s in table]
        volts = [s.volts for s in table]
        assert all(
            b - a == pytest.approx(25e6) for a, b in zip(freqs, freqs[1:])
        )
        assert all(
            b - a == pytest.approx(0.03) for a, b in zip(volts, volts[1:])
        )

    def test_at_least_picks_slowest_sufficient(self):
        table = DVSTable.xscale()
        assert table.at_least(310e6).freq_hz == 325e6
        assert table.at_least(325e6).freq_hz == 325e6

    def test_at_least_infeasible(self):
        with pytest.raises(InfeasibleError):
            DVSTable.xscale().at_least(1.2e9)

    def test_scaled_table_keeps_voltages(self):
        table = DVSTable.xscale().scaled(1.5)
        assert table.highest.freq_hz == pytest.approx(1.5e9)
        assert table.highest.volts == pytest.approx(1.78)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            DVSTable([])


class TestCheckpoints:
    def test_eq1_formula(self):
        wcet = make_wcet(1e9, [1000, 2000, 3000])
        deadline, ovhd = 10e-6, 1e-6
        checkpoints = checkpoint_times(deadline, ovhd, wcet)
        # checkpoint_i = deadline - ovhd - sum_{k>=i} WCET_k
        assert checkpoints[0] == pytest.approx(10e-6 - 1e-6 - 6e-6)
        assert checkpoints[1] == pytest.approx(10e-6 - 1e-6 - 5e-6)
        assert checkpoints[2] == pytest.approx(10e-6 - 1e-6 - 3e-6)
        assert checkpoints == sorted(checkpoints)

    def test_infeasible_deadline_raises(self):
        wcet = make_wcet(1e9, [5000, 5000])
        with pytest.raises(InfeasibleError):
            checkpoint_times(9e-6, 1e-6, wcet)

    def test_watchdog_increments_accumulate_to_checkpoints(self):
        wcet = make_wcet(1e9, [1000, 2000, 3000])
        checkpoints = checkpoint_times(20e-6, 1e-6, wcet)
        freq = 250e6
        increments = watchdog_increments(checkpoints, freq)
        assert len(increments) == 3
        for i in range(3):
            total = sum(increments[: i + 1])
            assert abs(total - checkpoints[i] * freq) < len(increments)

    def test_build_plan(self):
        wcet = make_wcet(1e9, [1000, 1000])
        plan = build_plan(10e-6, 1e-6, wcet, count_freq_hz=500e6)
        assert len(plan.increments) == 2
        assert plan.count_freq_hz == 500e6
        assert all(i > 0 for i in plan.increments)


class TestLowestSafeFrequency:
    def test_picks_minimum(self):
        # 8000 core cycles, no stalls: time = 8000/f; deadline 20us -> 400MHz.
        fn = synthetic_wcet_fn([8000], [0])
        setting = lowest_safe_frequency(fn, 20e-6, DVSTable.xscale())
        assert setting.freq_hz == 400e6

    def test_infeasible(self):
        fn = synthetic_wcet_fn([50000], [0])
        with pytest.raises(InfeasibleError):
            lowest_safe_frequency(fn, 20e-6, DVSTable.xscale())


class TestEQ4Solver:
    def test_solution_is_feasible_and_minimal(self):
        pets = [500, 500, 500]
        fn = synthetic_wcet_fn([2000, 2000, 2000], [5, 5, 5])
        deadline, ovhd = 30e-6, 1e-6
        table = DVSTable.xscale()
        pair = solve_eq4(pets, fn, deadline, ovhd, table)
        # Feasibility of the returned pair:
        wcet_rec = fn(pair.rec.freq_hz)
        prefix = 0.0
        for i in range(3):
            prefix += pets[i] / pair.spec.freq_hz
            assert prefix + ovhd + wcet_rec.tail_seconds(i) <= deadline + 1e-15
        # Minimality of f_spec: no feasible recovery at any lower f_spec.
        for spec in table:
            if spec.freq_hz >= pair.spec.freq_hz:
                break
            for rec in table:
                wcet_r = fn(rec.freq_hz)
                prefix = 0.0
                feasible = True
                for i in range(3):
                    prefix += pets[i] / spec.freq_hz
                    if prefix + ovhd + wcet_r.tail_seconds(i) > deadline:
                        feasible = False
                        break
                assert not feasible

    def test_infeasible_raises(self):
        pets = [100_000]
        fn = synthetic_wcet_fn([200_000], [0])
        with pytest.raises(InfeasibleError):
            solve_eq4(pets, fn, 1e-6, 1e-7, DVSTable.xscale())

    @settings(max_examples=30, deadline=None)
    @given(
        pets=st.lists(st.integers(100, 3000), min_size=1, max_size=6),
        inflate=st.floats(1.1, 3.0),
        slack=st.floats(1.05, 2.0),
    )
    def test_returned_pair_always_feasible(self, pets, inflate, slack):
        cores = [int(p * inflate) for p in pets]
        fn = synthetic_wcet_fn(cores, [2] * len(pets))
        deadline = fn(1e9).total_seconds * slack + 2e-6
        table = DVSTable.xscale()
        try:
            pair = solve_eq4(pets, fn, deadline, 1e-6, table)
        except InfeasibleError:
            return
        wcet_rec = fn(pair.rec.freq_hz)
        prefix = 0.0
        for i in range(len(pets)):
            prefix += pets[i] / pair.spec.freq_hz
            assert prefix + 1e-6 + wcet_rec.tail_seconds(i) <= deadline + 1e-12

    def test_lower_pets_never_raise_f_spec(self):
        fn = synthetic_wcet_fn([3000, 3000], [3, 3])
        deadline = 25e-6
        high = solve_eq4([1500, 1500], fn, deadline, 1e-6, DVSTable.xscale())
        low = solve_eq4([700, 700], fn, deadline, 1e-6, DVSTable.xscale())
        assert low.spec.freq_hz <= high.spec.freq_hz


class TestEQ2Solver:
    def test_feasible_solution(self):
        pets = [1800, 1800]
        fn = synthetic_wcet_fn([2000, 2000], [2, 2])
        pair = solve_eq2(pets, fn, 12e-6, 1e-6, DVSTable.xscale())
        wcet_spec = fn(pair.spec.freq_hz)
        wcet_rec = fn(pair.rec.freq_hz)
        prefix = 0.0
        for i in range(2):
            total = (
                prefix
                + wcet_spec.subtask_seconds(i)
                + 1e-6
                + wcet_rec.tail_seconds(i + 1)
            )
            assert total <= 12e-6 + 1e-15
            prefix += pets[i] / pair.spec.freq_hz

    def test_eq2_needs_more_headroom_than_eq4(self):
        """EQ 2 must budget the mispredicted sub-task's WCET at f_spec,
        EQ 4 only its PET — so EQ 4 can speculate at a lower frequency
        when WCET >> PET.  This is the heart of the paper's §4.2."""
        pets = [500, 500, 500]
        fn = synthetic_wcet_fn([2500, 2500, 2500], [3, 3, 3])
        deadline = 12e-6
        eq4 = solve_eq4(pets, fn, deadline, 1e-6, DVSTable.xscale())
        eq2 = solve_eq2(pets, fn, deadline, 1e-6, DVSTable.xscale())
        assert eq4.spec.freq_hz < eq2.spec.freq_hz


class TestPETPolicies:
    def test_lastn_max_window(self):
        pet = LastNPET(num_subtasks=1, window=3)
        for value in [10, 50, 20, 30, 40]:
            pet.record(0, value)
        assert pet.predict() == [40]  # max of last 3: {20,30,40} -> 40

    def test_lastn_ready(self):
        pet = LastNPET(num_subtasks=2)
        pet.record(0, 10)
        assert not pet.ready()
        pet.record(1, 10)
        assert pet.ready()

    def test_histogram_zero_rate_is_max(self):
        pet = HistogramPET(num_subtasks=1, target_rate=0.0)
        for value in range(1, 101):
            pet.record(0, value)
        assert pet.predict() == [100]

    def test_histogram_ten_percent(self):
        pet = HistogramPET(num_subtasks=1, target_rate=0.10)
        for value in range(1, 101):
            pet.record(0, value)
        [prediction] = pet.predict()
        above = sum(1 for v in range(1, 101) if v > prediction)
        assert 5 <= above <= 15

    def test_histogram_invalid_rate(self):
        with pytest.raises(ValueError):
            HistogramPET(1, target_rate=1.0)


class TestEQ4Monotonicity:
    @settings(max_examples=30, deadline=None)
    @given(
        pets=st.lists(st.integers(200, 2000), min_size=2, max_size=5),
        slack_lo=st.floats(1.2, 1.6),
        slack_hi=st.floats(1.7, 3.0),
    )
    def test_longer_deadline_never_raises_f_spec(self, pets, slack_lo, slack_hi):
        cores = [p * 2 for p in pets]
        fn = synthetic_wcet_fn(cores, [2] * len(pets))
        base = fn(1e9).total_seconds
        table = DVSTable.xscale()
        try:
            tight = solve_eq4(pets, fn, base * slack_lo + 2e-6, 1e-6, table)
            loose = solve_eq4(pets, fn, base * slack_hi + 2e-6, 1e-6, table)
        except InfeasibleError:
            return
        assert loose.spec.freq_hz <= tight.spec.freq_hz

    def test_more_subtasks_never_hurt_feasibility(self):
        """Splitting the same work across more sub-tasks gives EQ 4 finer
        recovery granularity: the solved f_spec can only stay or drop."""
        fn_coarse = synthetic_wcet_fn([8000], [8])
        fn_fine = synthetic_wcet_fn([2000] * 4, [2] * 4)
        deadline = fn_coarse(1e9).total_seconds * 1.5 + 2e-6
        table = DVSTable.xscale()
        coarse = solve_eq4([2000], fn_coarse, deadline, 1e-6, table)
        fine = solve_eq4([500] * 4, fn_fine, deadline, 1e-6, table)
        assert fine.spec.freq_hz <= coarse.spec.freq_hz

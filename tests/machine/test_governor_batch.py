"""Differential tests: ``run_governor_batch`` vs scalar ``run_governor``.

The batch governor's contract is *bit-identity*: for every kernel in
the batch, the lockstep loop must return exactly the arrays the scalar
loop returns -- same segment count, same IEEE-754 bits in every
duration and frequency.  These tests assert that with
``np.array_equal`` (no tolerances) across randomly sampled workloads,
plus the named edge cases: segment-budget exhaustion, exact work
consumption, degenerate sub-resolution tails, mixed
throttled/unthrottled batches, and per-kernel cap arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import governor
from repro.machine.governor import (
    GovernorSettings,
    _lockstep,
    run_governor,
    run_governor_batch,
)
from repro.machine.power import PowerTrace


def assert_batch_matches_scalar(work, demand, cap, gov=None):
    """Every lane of the batch result equals its scalar oracle, bitwise."""
    work = np.asarray(work, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cap_arr = np.broadcast_to(np.asarray(cap, dtype=float), work.shape)
    batch = run_governor_batch(work, demand, cap, gov)
    assert len(batch) == len(work)
    for i in range(len(work)):
        scalar = run_governor(
            float(work[i]), float(demand[i]), float(cap_arr[i]), gov
        )
        assert np.array_equal(batch.durations[i], scalar.durations), i
        assert np.array_equal(batch.frequencies[i], scalar.frequencies), i
        assert bool(batch.throttled[i]) == scalar.throttled, i
        # The precomputed trace geometry must equal an actually-built
        # trace, bit for bit (same cumsum/diff chain).
        trace = PowerTrace.from_durations(
            scalar.durations, scalar.frequencies
        )
        assert batch.trace_wall_times[i] == trace.duration, i
        assert np.array_equal(
            batch.trace_segment_durations[i], trace.segment_durations
        ), i


class TestDifferential:
    def test_mixed_throttled_and_unthrottled(self):
        work = np.array([0.5, 0.25, 0.01, 1.0, 0.002])
        demand = np.array([10.0, 30.0, 1000.0, 0.0, 25.0])
        assert_batch_matches_scalar(work, demand, 20.0)

    def test_single_kernel(self):
        assert_batch_matches_scalar([0.25], [30.0], 20.0)

    def test_per_kernel_cap_array(self):
        work = np.array([0.1, 0.1, 0.1])
        demand = np.array([30.0, 30.0, 30.0])
        caps = np.array([40.0, 20.0, 5.0])
        assert_batch_matches_scalar(work, demand, caps)

    def test_max_segments_exhaustion_tail(self):
        # A 10-segment budget cannot cover 1 s of throttled work; both
        # paths must append the steady-state fallback tail.
        gov = GovernorSettings(max_segments=10)
        work = np.array([1.0, 2.0, 0.003])
        demand = np.array([30.0, 50.0, 30.0])
        assert_batch_matches_scalar(work, demand, 20.0, gov)

    def test_exact_consumption_edge(self):
        # work an exact multiple of period * f=1: the finish test fires
        # with remaining == progress and the tail is a full segment.
        gov = GovernorSettings(period=1e-3)
        work = np.array([5e-3, 1e-3])
        demand = np.array([30.0, 30.0])
        assert_batch_matches_scalar(work, demand, 20.0, gov)

    def test_degenerate_tail_lane(self):
        # The scalar loop drops a trailing segment whose residual is
        # below the timeline's floating-point resolution; the batch
        # path must drop the same lane's tail.
        gov = GovernorSettings(period=1e-3, f_min=1.0)
        work = np.array([1.0000000000000009, 0.25])
        demand = np.array([2.0, 2.0])
        assert_batch_matches_scalar(work, demand, 1.0, gov)

    def test_work_within_one_interval(self, monkeypatch):
        # Throttled lanes whose work fits in the first control interval
        # (work == period, the float below it, work << period) finish
        # there at f = 1.0: one segment of ``work``, still throttled,
        # and they never enter the lockstep loop.  The float above the
        # period needs a second interval.  Mixed with multi-interval
        # lanes, under one cap and under a per-lane cap array.
        gov = GovernorSettings(period=1e-3)
        p = gov.period
        work = np.array(
            [p, np.nextafter(p, 0.0), np.nextafter(p, 1.0), p * 1e-6, 0.05, 0.2]
        )
        demand = np.full(len(work), 30.0)
        caps = np.array([20.0, 5.0, 25.0, 40.0, 10.0, 20.0])
        looped = []

        def recording(work, *args):
            looped.append(work.tolist())
            return _lockstep(work, *args)

        monkeypatch.setattr(governor, "_lockstep", recording)
        for cap in (20.0, caps):
            assert_batch_matches_scalar(work, demand, cap, gov)
            batch = run_governor_batch(work, demand, cap, gov)
            assert batch.throttled[:2].all()
            for i in (0, 1, 3):
                assert batch.durations[i].tolist() == [work[i]]
        # Each of the four batches above looped only the lanes that
        # need a second interval (lane 3 is unthrottled under the array).
        assert looped == [work[[2, 4, 5]].tolist()] * 4

    def test_deep_throttle_frequency_floor(self):
        gov = GovernorSettings(f_min=0.5)
        work = np.array([0.01, 0.02])
        demand = np.array([1000.0, 500.0])
        assert_batch_matches_scalar(work, demand, 1.0, gov)


def fixed_point(frequencies):
    """First interval from which a schedule's full segments keep one
    frequency (the index of the last full segment if it never settles)."""
    k = len(frequencies) - 1
    while k > 0 and frequencies[k - 1] == frequencies[k]:
        k -= 1
    return k


def lockstep_rows(work, demand, cap, gov):
    """How many intervals the lockstep loop itself iterated."""
    n = len(work)
    F, *_ = _lockstep(
        np.asarray(work, dtype=float),
        np.asarray(demand, dtype=float),
        np.full(n, cap),
        gov,
    )
    return len(F)


class TestFixedPoint:
    """The lockstep stops once no unfinished lane's frequency changed in
    an interval and finishes those lanes' remaining-work chains at
    constant progress; every case still matches the scalar loop."""

    def test_lanes_reach_the_fixed_point_at_different_intervals(self):
        gov = GovernorSettings()
        work = np.full(3, 0.05)
        demand = np.array([12.0, 20.0, 50.0])
        settle = [
            fixed_point(run_governor(0.05, d, 10.0, gov).frequencies[:-1])
            for d in demand
        ]
        assert len(set(settle)) == 3  # 2, 7 and 21 intervals
        assert_batch_matches_scalar(work, demand, 10.0, gov)
        # The loop stopped at the last lane's fixed point, long before
        # the last lane finished (225 intervals).
        assert lockstep_rows(work, demand, 10.0, gov) == max(settle) + 1

    def test_lane_that_never_settles(self):
        # With no dead band the frequency changes every interval, so the
        # loop runs to the finish.
        gov = GovernorSettings(hysteresis=0.0)
        work = np.array([0.05, 0.05])
        demand = np.array([12.0, 20.0])
        for d in demand:
            frequencies = run_governor(0.05, d, 10.0, gov).frequencies[:-1]
            assert np.all(np.diff(frequencies) != 0.0)
        assert_batch_matches_scalar(work, demand, 10.0, gov)
        finish = len(run_governor(0.05, 20.0, 10.0, gov).durations) - 1
        assert lockstep_rows(work, demand, 10.0, gov) == finish + 1

    def test_settled_and_unsettled_lanes_together(self):
        # One lane never settles, so the loop cannot stop early; the
        # settled lane just keeps its frequency.
        gov = GovernorSettings(hysteresis=0.0)
        work = np.array([0.05, 0.05])
        demand = np.array([10.0 / 0.9, 20.0])  # lane 0 lands exactly on the cap
        settled = run_governor(0.05, demand[0], 10.0, gov).frequencies[:-1]
        assert fixed_point(settled) == 1
        assert_batch_matches_scalar(work, demand, 10.0, gov)

    def test_budget_exhausted_before_the_fixed_point(self):
        gov = GovernorSettings(max_segments=5)
        work = np.array([1.0, 0.5])
        demand = np.array([50.0, 90.0])  # settle at 21 intervals
        assert fixed_point(run_governor(1.0, 50.0, 10.0).frequencies) > 5
        assert_batch_matches_scalar(work, demand, 10.0, gov)

    def test_budget_exhausted_after_the_fixed_point(self):
        gov = GovernorSettings(max_segments=60)
        work = np.array([1.0, 2.0, 0.01])
        demand = np.array([12.0, 20.0, 12.0])
        scalar = run_governor(1.0, 12.0, 10.0, gov)
        assert len(scalar.durations) == 61  # budget plus the fallback tail
        assert fixed_point(scalar.frequencies[:-1]) < 60
        assert_batch_matches_scalar(work, demand, 10.0, gov)
        assert lockstep_rows(work, demand, 10.0, gov) < 60

    def test_budget_runs_out_exactly_at_the_fixed_point(self):
        for budget in range(1, 12):
            gov = GovernorSettings(max_segments=budget)
            assert_batch_matches_scalar([0.2, 0.3], [20.0, 14.0], 10.0, gov)


class TestValidation:
    def test_rejects_2d_work(self):
        with pytest.raises(ValueError):
            run_governor_batch(np.ones((2, 2)), np.ones((2, 2)), 1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            run_governor_batch(np.ones(3), np.ones(2), 1.0)

    def test_rejects_nonpositive_work(self):
        with pytest.raises(ValueError):
            run_governor_batch([1.0, 0.0], [1.0, 1.0], 1.0)

    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            run_governor_batch([1.0], [-1.0], 1.0)

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            run_governor_batch([1.0], [1.0], 0.0)

    def test_empty_batch(self):
        batch = run_governor_batch([], [], 1.0)
        assert len(batch) == 0
        assert batch.trace_wall_times.shape == (0,)


class TestResultAccessors:
    def test_result_and_results_roundtrip(self):
        work = np.array([0.5, 0.1])
        demand = np.array([10.0, 30.0])
        batch = run_governor_batch(work, demand, 20.0)
        individual = batch.results()
        assert len(individual) == 2
        for i, res in enumerate(individual):
            assert np.array_equal(res.durations, batch.durations[i])
            assert res.throttled == bool(batch.throttled[i])


@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=8),
    cap=st.floats(min_value=0.1, max_value=500.0),
)
@settings(max_examples=150, deadline=None)
def test_batch_bit_identical_to_scalar(data, n, cap):
    """Sampled workloads: the batch path is the scalar path, bitwise."""
    work = np.array(
        [
            data.draw(st.floats(min_value=1e-4, max_value=1.0))
            for _ in range(n)
        ]
    )
    demand = np.array(
        [
            data.draw(st.floats(min_value=0.0, max_value=500.0))
            for _ in range(n)
        ]
    )
    assert_batch_matches_scalar(work, demand, cap)


@given(
    work=st.floats(min_value=1e-3, max_value=0.05),
    ratio=st.floats(min_value=1.05, max_value=30.0),
    max_segments=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=100, deadline=None)
def test_batch_matches_scalar_under_tiny_segment_budgets(
    work, ratio, max_segments
):
    """Budget exhaustion at every boundary: 1-segment budgets, budgets
    that expire exactly at the finish interval, and everything between
    must take the identical scalar fallback path."""
    gov = GovernorSettings(max_segments=max_segments)
    cap = 10.0
    assert_batch_matches_scalar([work], [cap * ratio], cap, gov)

"""Unit tests for repro.machine.noise."""

import numpy as np
import pytest

from repro.machine.noise import (
    NoiseSpec,
    insert_stalls,
    lognormal_factor,
    power_noise,
    sample_stalls,
)
from repro.machine.power import PowerTrace


class TestNoiseSpec:
    def test_defaults_are_silent(self):
        spec = NoiseSpec()
        assert spec.time_sigma == 0.0
        assert spec.interference_rate == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseSpec(time_sigma=-0.1)

    def test_interference_fields_coupled(self):
        with pytest.raises(ValueError, match="both"):
            NoiseSpec(interference_rate=1.0)
        with pytest.raises(ValueError, match="both"):
            NoiseSpec(interference_duration=1.0)


class TestLognormalFactor:
    def test_zero_sigma_is_deterministic_one(self, rng):
        state = rng.bit_generator.state
        assert lognormal_factor(rng, 0.0) == 1.0
        # No random numbers consumed.
        assert rng.bit_generator.state == state

    def test_positive_and_median_near_one(self, rng):
        factors = [lognormal_factor(rng, 0.1) for _ in range(2000)]
        assert all(f > 0 for f in factors)
        assert np.median(factors) == pytest.approx(1.0, abs=0.02)


class TestTraceNoise:
    """``power_noise``: the per-segment power noise of ``Engine._noisy``."""

    def test_zero_sigma_returns_same_object(self, rng):
        values = np.array([10.0, 20.0])
        state = rng.bit_generator.state
        assert power_noise(rng, values, 0.0) is values
        # No random numbers consumed.
        assert rng.bit_generator.state == state

    def test_noise_perturbs_values(self, rng):
        values = np.array([10.0, 20.0])
        noisy = power_noise(rng, values, 0.05)
        assert noisy.shape == values.shape
        assert np.all(noisy > 0)
        assert not np.array_equal(noisy, values)
        assert np.array_equal(values, [10.0, 20.0])

    def test_noise_unbiased_in_median(self, rng):
        noisy = power_noise(rng, np.full(4000, 10.0), 0.1)
        assert np.median(noisy) == pytest.approx(10.0, rel=0.02)


class TestSampleStalls:
    def test_zero_rate_empty(self, rng):
        assert sample_stalls(rng, 1.0, 0.0, 0.0) == []

    def test_sorted_and_in_range(self, rng):
        stalls = sample_stalls(rng, 10.0, 5.0, 0.01)
        times = [t for t, _ in stalls]
        assert times == sorted(times)
        assert all(0 <= t <= 10.0 for t in times)
        assert all(length > 0 for _, length in stalls)

    def test_poisson_count(self, rng):
        counts = [len(sample_stalls(rng, 1.0, 8.0, 0.01)) for _ in range(500)]
        assert np.mean(counts) == pytest.approx(8.0, rel=0.1)


class TestInsertStalls:
    def test_no_stalls_identity(self):
        trace = PowerTrace.constant(10.0, 1.0)
        assert insert_stalls(trace, [], 2.0) is trace

    def test_extends_duration_by_total_stall(self):
        trace = PowerTrace(np.array([0.0, 1.0, 2.0]), np.array([10.0, 20.0]))
        out = insert_stalls(trace, [(0.5, 0.1), (1.5, 0.2)], 3.0)
        assert out.duration == pytest.approx(2.3)

    def test_preserves_active_energy(self):
        trace = PowerTrace(np.array([0.0, 1.0, 2.0]), np.array([10.0, 20.0]))
        out = insert_stalls(trace, [(0.5, 0.1), (1.5, 0.2)], 3.0)
        stall_energy = 3.0 * 0.3
        assert out.energy() == pytest.approx(trace.energy() + stall_energy)

    def test_stall_power_appears(self):
        trace = PowerTrace.constant(10.0, 1.0)
        out = insert_stalls(trace, [(0.5, 0.2)], 3.0)
        assert 3.0 in out.values.tolist()

    def test_stall_at_boundary(self):
        trace = PowerTrace(np.array([0.0, 1.0, 2.0]), np.array([10.0, 20.0]))
        out = insert_stalls(trace, [(1.0, 0.5)], 0.0)
        assert out.duration == pytest.approx(2.5)
        assert out.energy() == pytest.approx(trace.energy())

    def test_stall_beyond_end_appends(self):
        trace = PowerTrace.constant(10.0, 1.0)
        out = insert_stalls(trace, [(5.0, 0.3)], 1.0)
        assert out.duration == pytest.approx(1.3)
        assert out.values[-1] == 1.0

    def test_zero_length_stall_ignored(self):
        trace = PowerTrace.constant(10.0, 1.0)
        out = insert_stalls(trace, [(0.5, 0.0)], 1.0)
        assert out.duration == pytest.approx(1.0)

    def test_many_stalls_order_independent(self, rng):
        trace = PowerTrace.from_durations(
            np.full(10, 0.1), np.linspace(5, 50, 10)
        )
        stalls = [(float(t), 0.05) for t in rng.uniform(0, 1.0, 7)]
        out = insert_stalls(trace, stalls, 2.0)
        assert out.duration == pytest.approx(1.0 + 7 * 0.05)
        assert out.energy() == pytest.approx(
            trace.energy() + 2.0 * 7 * 0.05
        )

"""Unit tests for repro.machine.power (PowerTrace)."""

import numpy as np
import pytest

from repro.machine.power import PowerTrace


@pytest.fixture
def trace():
    """Three segments: 10 W for 1 s, 20 W for 2 s, 5 W for 1 s."""
    return PowerTrace(np.array([0.0, 1.0, 3.0, 4.0]), np.array([10.0, 20.0, 5.0]))


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="len"):
            PowerTrace(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PowerTrace(np.array([0.0]), np.array([]))

    def test_non_increasing_edges(self):
        with pytest.raises(ValueError, match="increasing"):
            PowerTrace(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0]))

    def test_negative_power(self):
        with pytest.raises(ValueError, match="non-negative"):
            PowerTrace(np.array([0.0, 1.0]), np.array([-1.0]))

    def test_constant_rejects_zero_duration(self):
        with pytest.raises(ValueError, match="duration"):
            PowerTrace.constant(5.0, 0.0)

    def test_from_durations_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            PowerTrace.from_durations(np.array([1.0, 0.0]), np.array([1.0, 2.0]))


class TestQuantities:
    def test_duration(self, trace):
        assert trace.duration == pytest.approx(4.0)

    def test_energy_exact_integral(self, trace):
        assert trace.energy() == pytest.approx(10 * 1 + 20 * 2 + 5 * 1)

    def test_average_power(self, trace):
        assert trace.average_power() == pytest.approx(55.0 / 4.0)

    def test_constant_constructor(self):
        t = PowerTrace.constant(7.0, 2.0)
        assert t.energy() == pytest.approx(14.0)

    def test_from_durations(self):
        t = PowerTrace.from_durations(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
        assert t.duration == pytest.approx(4.0)
        assert t.energy() == pytest.approx(14.0)


class TestSampling:
    def test_sample_values(self, trace):
        values = trace.sample(np.array([0.5, 1.5, 3.5]))
        assert values.tolist() == [10.0, 20.0, 5.0]

    def test_final_edge_belongs_to_last_segment(self, trace):
        assert trace.sample(np.array([4.0]))[0] == 5.0

    def test_out_of_range_rejected(self, trace):
        with pytest.raises(ValueError, match="within"):
            trace.sample(np.array([4.5]))
        with pytest.raises(ValueError, match="within"):
            trace.sample(np.array([-0.1]))

    def test_dense_sampling_approximates_energy(self, trace):
        times = np.linspace(0, trace.duration, 100_001)[:-1] + trace.duration / 200_002
        approx = np.mean(trace.sample(times)) * trace.duration
        assert approx == pytest.approx(trace.energy(), rel=1e-3)


class TestTransforms:
    def test_scaled(self, trace):
        assert trace.scaled(0.5).energy() == pytest.approx(trace.energy() / 2)

    def test_scaled_rejects_negative(self, trace):
        with pytest.raises(ValueError):
            trace.scaled(-1.0)

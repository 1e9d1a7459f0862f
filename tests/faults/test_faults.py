"""Unit tests for the fault-injection subsystem itself."""

import numpy as np
import pytest

from repro.faults import (
    EmptyChannelError,
    FaultInjector,
    FaultPlan,
    errors,
)
from repro.lint.rules.exceptions import _FAULT_CLASSES
from repro.machine.power import PowerTrace
from repro.measurement.energy import MeasuredRun
from repro.measurement.powermon import ChannelReading, Measurement, PowerMon
from repro.microbench.runner import validate_measured_run
from repro.faults.errors import CorruptObservationError


def channel_arrays(n: int = 256, rate: float = 1024.0):
    times = (np.arange(n) + 0.5) / rate
    power = 50.0 + 10.0 * np.sin(2 * np.pi * times)
    return times, power


class TestFaultPlan:
    def test_defaults_are_zero(self):
        assert FaultPlan().is_zero
        assert FaultPlan.zero(seed=9).is_zero
        assert FaultPlan.zero(seed=9).seed == 9

    def test_active_fields_break_is_zero(self):
        assert not FaultPlan(sample_dropout=0.1).is_zero
        assert not FaultPlan(timestamp_jitter=1e-4).is_zero
        assert not FaultPlan(saturation_power=100.0).is_zero
        assert not FaultPlan(run_failure_rate=0.5).is_zero

    def test_desync_needs_both_knobs(self):
        # A skew magnitude with zero probability (or vice versa) can
        # never fire, so the plan is still the identity.
        assert FaultPlan(channel_desync=1e-3).is_zero
        assert FaultPlan(desync_probability=0.5).is_zero
        assert not FaultPlan(channel_desync=1e-3, desync_probability=0.5).is_zero

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sample_dropout=1.5),
            dict(sample_dropout=-0.1),
            dict(nan_rate=2.0),
            dict(run_failure_rate=1.01),
            dict(timestamp_jitter=-1e-6),
            dict(channel_desync=-1e-6),
            dict(saturation_power=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_with_seed(self):
        plan = FaultPlan(sample_dropout=0.2, seed=1)
        reseeded = plan.with_seed(42)
        assert reseeded.seed == 42
        assert reseeded.sample_dropout == 0.2

    def test_parse_aliases_and_seed(self):
        plan = FaultPlan.parse(
            "dropout=0.05, jitter=1e-4, run_failure=0.1, seed=7"
        )
        assert plan.sample_dropout == 0.05
        assert plan.timestamp_jitter == 1e-4
        assert plan.run_failure_rate == 0.1
        assert plan.seed == 7

    def test_parse_full_field_names(self):
        plan = FaultPlan.parse("sample_dropout=0.25,saturation=120")
        assert plan.sample_dropout == 0.25
        assert plan.saturation_power == 120.0

    def test_parse_empty_is_zero(self):
        assert FaultPlan.parse("") == FaultPlan.zero()

    def test_parse_rejects_unknown_and_malformed(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultPlan.parse("dorpout=0.1")
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("dropout")

    def test_describe(self):
        assert FaultPlan().describe() == "no faults"
        assert "sample_dropout=0.1" in FaultPlan(sample_dropout=0.1).describe()


class TestInjectorZeroIsFree:
    def test_zero_plan_returns_identical_arrays(self):
        times, power = channel_arrays()
        injector = FaultInjector(FaultPlan.zero())
        assert not injector.active
        out_t, out_p = injector.corrupt_channel("12v", times, power)
        assert out_t is times
        assert out_p is power

    def test_zero_plan_run_untouched(self):
        injector = FaultInjector(FaultPlan.zero())
        assert not injector.fail_run("any")
        assert injector.counters.samples_corrupted == 0


class TestInjectorDeterminism:
    PLAN = FaultPlan(
        seed=11,
        sample_dropout=0.1,
        timestamp_jitter=1e-4,
        nan_rate=0.05,
        saturation_power=55.0,
        channel_desync=1e-3,
        desync_probability=0.5,
    )

    def test_same_seed_same_corruption(self):
        times, power = channel_arrays()
        a = FaultInjector(self.PLAN)
        b = FaultInjector(self.PLAN)
        ta, pa = a.corrupt_channel("12v", times, power)
        tb, pb = b.corrupt_channel("12v", times, power)
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(pa, pb)  # NaNs compare positionally.
        assert a.counters == b.counters

    def test_key_changes_the_stream(self):
        times, power = channel_arrays()
        a, _ = FaultInjector(self.PLAN).corrupt_channel("12v", times, power)
        b, _ = FaultInjector(self.PLAN, key=3).corrupt_channel(
            "12v", times, power
        )
        assert len(a) != len(b) or not np.array_equal(a, b)

    def test_inputs_never_mutated(self):
        times, power = channel_arrays()
        t0, p0 = times.copy(), power.copy()
        FaultInjector(self.PLAN).corrupt_channel("12v", times, power)
        np.testing.assert_array_equal(times, t0)
        np.testing.assert_array_equal(power, p0)


class TestFaultModels:
    def test_dropout_removes_samples_and_counts(self):
        times, power = channel_arrays()
        injector = FaultInjector(FaultPlan(seed=1, sample_dropout=0.5))
        out_t, out_p = injector.corrupt_channel("12v", times, power)
        assert 0 < len(out_t) < len(times)
        assert len(out_t) == len(out_p)
        assert injector.counters.samples_dropped == len(times) - len(out_t)

    def test_total_dropout_empties_the_channel(self):
        times, power = channel_arrays()
        injector = FaultInjector(FaultPlan(seed=1, sample_dropout=1.0))
        out_t, out_p = injector.corrupt_channel("12v", times, power)
        assert len(out_t) == 0 and len(out_p) == 0
        assert injector.counters.channels_emptied == 1

    def test_jitter_keeps_times_monotone(self):
        times, power = channel_arrays()
        injector = FaultInjector(FaultPlan(seed=2, timestamp_jitter=1e-4))
        out_t, _ = injector.corrupt_channel("12v", times, power)
        assert not np.array_equal(out_t, times)
        assert np.all(np.diff(out_t) >= 0)

    def test_nan_injection_counts_and_copies(self):
        times, power = channel_arrays(n=2048)
        injector = FaultInjector(FaultPlan(seed=3, nan_rate=0.1))
        _, out_p = injector.corrupt_channel("12v", times, power)
        n_nan = int(np.count_nonzero(np.isnan(out_p)))
        assert n_nan > 0
        assert injector.counters.samples_nan == n_nan
        assert not np.any(np.isnan(power))

    def test_saturation_clips_at_full_scale(self):
        times, power = channel_arrays()
        injector = FaultInjector(FaultPlan(seed=4, saturation_power=52.0))
        _, out_p = injector.corrupt_channel("12v", times, power)
        assert np.max(out_p) <= 52.0
        expected = int(np.count_nonzero(power > 52.0))
        assert injector.counters.samples_saturated == expected

    def test_desync_skew_is_persistent_per_rail(self):
        times, power = channel_arrays()
        injector = FaultInjector(
            FaultPlan(seed=5, channel_desync=1e-3, desync_probability=1.0)
        )
        t1, _ = injector.corrupt_channel("12v", times, power)
        t2, _ = injector.corrupt_channel("12v", times, power)
        np.testing.assert_array_equal(t1, t2)
        skew = t1[0] - times[0]
        assert skew != 0.0 and abs(skew) <= 1e-3
        assert injector.counters.channels_desynced == 1

    def test_fail_run(self):
        injector = FaultInjector(FaultPlan(seed=7, run_failure_rate=1.0))
        assert injector.fail_run("intensity/k#r0")
        assert injector.counters.runs_failed == 1


class TestEmptyChannel:
    def test_channel_reading_names_the_rail(self):
        with pytest.raises(EmptyChannelError) as err:
            ChannelReading(rail="atx", times=np.array([]), power=np.array([]))
        assert err.value.rail == "atx"
        # Backward compatible with the old generic ValueError.
        assert isinstance(err.value, ValueError)

    def test_powermon_total_dropout_raises_named_error(self):
        trace = PowerTrace(edges=np.array([0.0, 0.5]), values=np.array([40.0]))
        mon = PowerMon(faults=FaultPlan(seed=1, sample_dropout=1.0))
        with pytest.raises(EmptyChannelError):
            mon.measure({"12v": trace})


class TestValidateMeasuredRun:
    @staticmethod
    def measured(energy: float, avg_power: float = 50.0) -> MeasuredRun:
        reading = ChannelReading(
            rail="12v", times=np.array([0.5]), power=np.array([avg_power])
        )
        return MeasuredRun(
            wall_time=1.0,
            energy=energy,
            avg_power=avg_power,
            measurement=Measurement(channels=(reading,), duration=1.0),
        )

    def test_accepts_clean_run(self):
        validate_measured_run(self.measured(energy=50.0), "bench/k#r0")

    @pytest.mark.parametrize("energy", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_energy(self, energy):
        with pytest.raises(CorruptObservationError) as err:
            validate_measured_run(self.measured(energy=energy), "bench/k#r0")
        assert err.value.run == "bench/k#r0"
        assert "energy" in err.value.reason


def test_arch003_knows_every_fault_class():
    """ARCH003 matches handlers by class name, so its list must be the
    whole RigFaultError hierarchy that ``repro.faults.errors`` defines."""
    defined = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.RigFaultError)
        and obj.__module__ == errors.__name__
    }
    assert _FAULT_CLASSES == defined

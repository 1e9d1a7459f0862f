"""Unit tests for the measurement layer (PowerMon, rails, energy
estimators)."""

import math

import numpy as np
import pytest

from repro.machine.platforms import platform
from repro.machine.power import PowerTrace
from repro.measurement.energy import (
    MeasurementRig,
    mean_power_energy,
    trapezoid_energy,
)
from repro.measurement.powermon import PowerMon
from repro.measurement.rails import PCIE_SLOT_LIMIT, RailTopology, topology_for


@pytest.fixture
def mon():
    return PowerMon(resolution=0.0)


@pytest.fixture
def steady():
    return PowerTrace.constant(100.0, 1.0)


class TestPowerMon:
    def test_constant_trace_measured_exactly(self, mon, steady):
        m = mon.measure({"main": steady})
        assert m.average_power == pytest.approx(100.0)
        assert m.energy == pytest.approx(100.0)
        (channel,) = m.channels
        assert channel.rail == "main"
        assert len(channel.times) == 1024

    def test_varying_trace_sampled_estimate(self, mon):
        trace = PowerTrace(np.array([0.0, 0.5, 1.0]), np.array([50.0, 150.0]))
        m = mon.measure({"main": trace})
        assert m.average_power == pytest.approx(100.0, rel=0.01)

    def test_quantisation(self, steady):
        mon = PowerMon(resolution=7.0)
        m = mon.measure({"main": steady})
        assert m.average_power == pytest.approx(98.0)  # 100 -> 14 * 7

    def test_aggregate_limit_reduces_rate(self):
        mon = PowerMon(sample_rate=1024, aggregate_limit=3072)
        assert mon.effective_rate(1) == 1024
        assert mon.effective_rate(3) == 1024
        assert mon.effective_rate(6) == 512

    def test_channel_count_limit(self):
        mon = PowerMon(max_channels=2)
        with pytest.raises(ValueError, match="channels"):
            mon.effective_rate(3)

    def test_short_run_still_one_sample(self, mon):
        trace = PowerTrace.constant(40.0, 1e-4)
        m = mon.measure({"main": trace})
        (channel,) = m.channels
        assert len(channel.times) == 1
        assert m.average_power == pytest.approx(40.0)

    def test_multi_rail_sum(self, mon, steady):
        m = mon.measure({"a": steady, "b": steady.scaled(0.5)})
        assert m.average_power == pytest.approx(150.0)

    def test_mismatched_durations_rejected(self, mon, steady):
        other = PowerTrace.constant(10.0, 2.0)
        with pytest.raises(ValueError, match="duration"):
            mon.measure({"a": steady, "b": other})

    def test_empty_rails_rejected(self, mon):
        with pytest.raises(ValueError, match="at least one"):
            mon.measure({})

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerMon(sample_rate=0)
        with pytest.raises(ValueError):
            PowerMon(resolution=-1)

    def test_sampling_error_shrinks_with_rate(self):
        """Ablation mechanism: higher rates track varying traces better
        (on average -- a single trace can get lucky at any rate)."""
        errors = {64.0: [], 16384.0: []}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            durations = np.full(200, 1.0 / 200)
            values = rng.uniform(50, 150, 200)
            trace = PowerTrace.from_durations(durations, values)
            for rate in errors:
                m = PowerMon(
                    sample_rate=rate, aggregate_limit=1e9, resolution=0.0
                )
                est = m.measure({"main": trace}).average_power
                errors[rate].append(abs(est - trace.average_power()))
        assert np.mean(errors[16384.0]) < np.mean(errors[64.0])


class TestRails:
    def test_split_sums_to_total(self):
        topo = RailTopology(
            name="t",
            rails=("a", "b"),
            fractions=(0.6, 0.4),
            limits=(math.inf, math.inf),
        )
        trace = PowerTrace(np.array([0.0, 1.0, 2.0]), np.array([100.0, 60.0]))
        rails = topo.split(trace)
        total = rails["a"].values + rails["b"].values
        assert np.allclose(total, trace.values)
        assert np.allclose(rails["a"].values, [60.0, 36.0])

    def test_limit_spills_to_other_rails(self):
        topo = RailTopology(
            name="t",
            rails=("slot", "aux"),
            fractions=(0.5, 0.5),
            limits=(75.0, math.inf),
        )
        trace = PowerTrace.constant(200.0, 1.0)
        rails = topo.split(trace)
        assert rails["slot"].values[0] == pytest.approx(75.0)
        assert rails["aux"].values[0] == pytest.approx(125.0)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            RailTopology("t", ("a",), (0.9,), (math.inf,))

    def test_no_headroom_still_conserves_power(self):
        topo = RailTopology(
            name="t", rails=("a", "b"), fractions=(0.5, 0.5), limits=(10.0, 10.0)
        )
        trace = PowerTrace.constant(100.0, 1.0)
        rails = topo.split(trace)
        assert rails["a"].values[0] + rails["b"].values[0] == pytest.approx(100.0)

    def test_topology_selection(self):
        assert topology_for(platform("gtx-titan")).name == "discrete-gpu"
        assert topology_for(platform("xeon-phi")).name == "coprocessor"
        assert topology_for(platform("desktop-cpu")).name == "cpu-system"
        assert topology_for(platform("arndale-gpu")).name == "dc-brick"
        assert topology_for(platform("pandaboard-es")).name == "dc-brick"

    def test_gpu_topologies_respect_slot_limit(self):
        for pid in ("gtx-580", "gtx-680", "gtx-titan"):
            cfg = platform(pid)
            topo = topology_for(cfg)
            trace = PowerTrace.constant(cfg.max_model_power, 0.5)
            rails = topo.split(trace)
            assert rails["pcie_slot"].values.max() <= PCIE_SLOT_LIMIT + 1e-9


class TestEnergyEstimators:
    def test_mean_power_estimator(self, mon, steady):
        m = mon.measure({"main": steady})
        assert mean_power_energy(m) == pytest.approx(steady.energy())

    def test_trapezoid_close_to_exact_on_smooth_trace(self, mon):
        edges = np.linspace(0, 1, 101)
        values = 100 + 20 * np.sin(np.linspace(0, 3, 100))
        trace = PowerTrace(edges, values)
        m = mon.measure({"main": trace})
        assert trapezoid_energy(m) == pytest.approx(trace.energy(), rel=0.01)

    def test_rig_end_to_end(self):
        cfg = platform("gtx-titan")
        rig = MeasurementRig(cfg, powermon=PowerMon(resolution=0.0))
        trace = PowerTrace.constant(200.0, 0.5)
        run = rig.measure(trace)
        assert run.avg_power == pytest.approx(200.0, rel=1e-6)
        assert run.energy == pytest.approx(100.0, rel=1e-6)
        assert run.wall_time == pytest.approx(0.5)
        # Titan draws from three sources.
        assert len(run.measurement.channels) == 3

    def test_rig_quantisation_bias_small(self):
        cfg = platform("gtx-titan")
        rig = MeasurementRig(cfg)  # default 0.01 W resolution
        trace = PowerTrace.constant(123.456, 0.5)
        run = rig.measure(trace)
        assert run.avg_power == pytest.approx(123.456, abs=0.05)

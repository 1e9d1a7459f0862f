"""Differential harness: the zero plan IS the no-fault path, bit for bit.

Two properties anchor the whole fault subsystem:

* **identity** -- an all-zero :class:`FaultPlan` must leave every
  execution path (single runs, primed batch sweeps, full campaigns,
  the measurement rig) bit-for-bit identical to running with no plan
  at all;
* **determinism** -- an active plan's corruption is a pure function of
  ``(plan, key)``: re-applying it reproduces the same corrupted arrays,
  NaN positions included.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.machine.engine import Engine
from repro.machine.kernel import DRAM, KernelSpec
from repro.machine.platforms import platform
from repro.measurement.energy import MeasurementRig
from repro.measurement.powermon import PowerMon
from repro.microbench.campaign import CampaignRunner, CampaignSettings
from repro.microbench.intensity import intensity_sweep
from repro.microbench.runner import BenchmarkRunner

#: Reduced campaign: enough kernels to exercise every sweep path the
#: shards use, small enough to run several times in one test module.
QUICK = CampaignSettings(
    replicates=1,
    points_per_octave=2,
    target_duration=0.1,
    include_double=False,
)
PLATFORMS = ("gtx-titan", "nuc-gpu")


def run_quick_campaign(faults):
    runner = CampaignRunner(PLATFORMS, replace(QUICK, faults=faults))
    fits = runner.run()
    return fits, runner.report


class TestRunnerIdentity:
    def test_single_run_bit_identical(self):
        kernel = KernelSpec(name="k", flops=1e9, traffic={DRAM: 1e9})
        obs = []
        for faults in (None, FaultPlan.zero(seed=2014)):
            runner = BenchmarkRunner(
                platform("gtx-titan"), seed=7, faults=faults
            )
            obs.append(runner.execute(kernel, "intensity"))
        assert obs[0] == obs[1]

    def test_primed_sweep_bit_identical(self):
        """The vectorised run_batch calibration path is also identical."""
        sweeps = []
        for faults in (None, FaultPlan.zero(seed=2014)):
            runner = BenchmarkRunner(
                platform("gtx-titan"), seed=7, faults=faults
            )
            sweeps.append(intensity_sweep(runner, replicates=2))
        assert sweeps[0] == sweeps[1]

    def test_zero_plan_keeps_counters_at_zero(self):
        runner = BenchmarkRunner(
            platform("gtx-titan"), seed=7, faults=FaultPlan.zero()
        )
        intensity_sweep(runner, replicates=1)
        assert runner.runs_failed == 0
        assert runner.retries == 0
        assert runner.quarantined == []
        assert runner.fault_counters.samples_corrupted == 0


class TestCampaignIdentity:
    """``CampaignRunner.run`` under the zero plan == no plan."""

    @pytest.fixture(scope="class")
    def reference(self):
        return run_quick_campaign(faults=None)

    @staticmethod
    def assert_fits_identical(fits_a, fits_b):
        assert set(fits_a) == set(fits_b) == set(PLATFORMS)
        for pid in PLATFORMS:
            a, b = fits_a[pid], fits_b[pid]
            assert a.campaign.all_observations == b.campaign.all_observations
            assert a.capped.params == b.capped.params
            assert a.uncapped.params == b.uncapped.params

    # A zero plan draws no faults, so its seed must not move anything.
    @pytest.mark.parametrize("seed", [1, 2])
    def test_zero_plan_matches_no_plan(self, reference, seed):
        fits, report = run_quick_campaign(faults=FaultPlan.zero(seed=seed))
        self.assert_fits_identical(reference[0], fits)
        assert report.ok
        assert report.runs_failed == 0
        assert report.quarantined_cells == ()
        assert report.n_runs == reference[1].n_runs

    def test_rig_measurement_identity(self):
        cfg = platform("gtx-titan")
        engine = Engine(cfg, rng=np.random.default_rng(3))
        # Compute-bound enough to throttle: a multi-segment noisy trace.
        kernel = KernelSpec(name="k", flops=2e10, traffic={DRAM: 1e9})
        trace = engine.run(kernel.scaled(50)).trace
        assert len(trace.values) > 1
        clean = MeasurementRig(cfg).measure(trace)
        zeroed = MeasurementRig(
            cfg, PowerMon(faults=FaultPlan.zero(seed=5))
        ).measure(trace)
        assert (clean.wall_time, clean.energy, clean.avg_power) == (
            zeroed.wall_time,
            zeroed.energy,
            zeroed.avg_power,
        )
        pairs = zip(
            clean.measurement.channels, zeroed.measurement.channels, strict=True
        )
        for a, b in pairs:
            assert a.rail == b.rail
            assert a.times.tobytes() == b.times.tobytes()
            assert a.power.tobytes() == b.power.tobytes()


class TestSeededDeterminism:
    @given(
        dropout=st.floats(0.0, 0.5),
        jitter=st.floats(0.0, 1e-3),
        nan_rate=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**31),
    )
    def test_corruption_is_a_function_of_plan_and_key(
        self, dropout, jitter, nan_rate, seed
    ):
        plan = FaultPlan(
            seed=seed,
            sample_dropout=dropout,
            timestamp_jitter=jitter,
            nan_rate=nan_rate,
            channel_desync=1e-3,
            desync_probability=0.5,
            saturation_power=55.0,
        )
        times = (np.arange(512) + 0.5) / 1024.0
        power = 50.0 + 10.0 * np.sin(2 * np.pi * 3 * times)
        results = []
        for _ in range(2):
            injector = FaultInjector(plan, key=1)
            # Two rails: the second draw depends on the first having
            # consumed the stream identically.
            a = injector.corrupt_channel("12v", times, power)
            b = injector.corrupt_channel("5v", times, power)
            results.append((a, b))
        for (ta, pa), (tb, pb) in zip(results[0], results[1]):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(pa, pb)

    @given(seed=st.integers(0, 2**31))
    def test_fault_campaign_reproduces_from_seed(self, seed):
        # Cheap probe: one runner, one kernel, moderate fault rates --
        # the accepted observation stream must reproduce exactly.
        plan = FaultPlan(seed=seed, sample_dropout=0.3, run_failure_rate=0.3)
        kernel = KernelSpec(name="k", flops=1e9, traffic={DRAM: 1e9})
        outcomes = []
        for _ in range(2):
            runner = BenchmarkRunner(
                platform("nuc-gpu"), seed=3, faults=plan, max_retries=1
            )
            obs = runner.execute_replicates(kernel, "intensity", 3)
            outcomes.append(
                (obs, runner.runs_failed, runner.retries, len(runner.quarantined))
            )
        assert outcomes[0] == outcomes[1]

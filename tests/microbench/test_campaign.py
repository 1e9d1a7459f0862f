"""Campaign runner: seeding, counters, shard isolation, messages.

These tests use scaled-down campaigns on a platform subset so the
smoke test stays tier-1 cheap.  That a platform's fit does not depend
on which other platforms share the campaign, or on their order, is
tests/microbench/test_one_path.py's job.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.machine.kernel import DRAM, KernelSpec
from repro.machine.platforms import platform
from repro.microbench.campaign import (
    CampaignRunner,
    CampaignSettings,
    ShardReport,
    ShardSpec,
    run_shard,
)
from repro.microbench.runner import BenchmarkRunner, Observation

QUICK = CampaignSettings(
    replicates=1,
    points_per_octave=2,
    target_duration=0.1,
    include_double=False,
)


def quick_runner(platform_ids):
    return CampaignRunner(platform_ids, QUICK)


def _failing_shard(spec):
    time.sleep(0.05)
    raise RuntimeError("boom")


class TestRunShard:
    def test_reports_counters(self):
        spec = ShardSpec("gtx-titan", replace(QUICK, seed=99))
        fitted, report = run_shard(spec)
        assert fitted.config.name == platform("gtx-titan").name
        assert report.platform_id == "gtx-titan"
        assert report.seed == 99
        assert report.n_runs == fitted.campaign.n_runs > 0
        assert report.calibration_misses > 0
        # Replicated peak runs re-use the primed/warm cache.
        assert report.calibration_hits > 0
        assert 0.0 < report.calibration_hit_rate < 1.0
        assert report.wall_seconds > 0.0


class TestCampaignRunner:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="at least one"):
            CampaignRunner(())
        with pytest.raises(ValueError, match="unknown platform"):
            CampaignRunner(("gtx-titan", "not-a-platform"))
        with pytest.raises(ValueError, match="duplicate"):
            CampaignRunner(("gtx-titan", "gtx-titan"))

    def test_smoke_run_with_report(self):
        """Tiny two-platform campaign end to end."""
        runner = quick_runner(("gtx-titan", "xeon-phi"))
        seen: list[ShardReport] = []
        fits = runner.run(progress=seen.append)
        assert set(fits) == {"gtx-titan", "xeon-phi"}
        # Shards run, and report progress, in platform order.
        assert [r.platform_id for r in seen] == ["gtx-titan", "xeon-phi"]
        report = runner.report
        assert report is not None
        assert report.n_runs == sum(r.n_runs for r in seen)
        assert report.shard_seconds > 0.0
        assert report.shard_seconds <= report.wall_seconds
        assert [s.platform_id for s in report.shards] == [
            "gtx-titan", "xeon-phi",
        ]

    def test_failed_shards_report_burned_time(self):
        runner = CampaignRunner(
            ("gtx-titan", "nuc-gpu"), QUICK, shard_fn=_failing_shard
        )
        fits = runner.run()
        report = runner.report
        assert fits == {}
        assert not report.ok
        for shard in report.shards:
            assert shard.status == "failed"
            assert "boom" in shard.error
            # Each shard slept 0.05s before raising; that time burned.
            assert shard.wall_seconds > 0.0
        assert report.shard_seconds > 0.0


class TestProgressIsolation:
    """A user progress callback that raises must not kill the
    campaign or leave report unset."""

    @staticmethod
    def _boom(shard_report):
        raise ValueError("observer crashed")

    def test_inline_progress_exception_recorded(self):
        runner = quick_runner(("gtx-titan",))
        fits = runner.run(progress=self._boom)
        assert set(fits) == {"gtx-titan"}
        assert runner.report is not None
        assert runner.report.ok
        (err,) = runner.progress_errors
        assert "gtx-titan" in err and "observer crashed" in err

    def test_progress_errors_reset_between_runs(self):
        runner = quick_runner(("gtx-titan",))
        runner.run(progress=self._boom)
        assert runner.progress_errors
        runner.run()
        assert runner.progress_errors == ()


class TestCalibrationMemoisation:
    def test_replicates_hit_the_cache(self):
        runner = BenchmarkRunner(platform("gtx-titan"), seed=0)
        k = KernelSpec(name="k", flops=1e9, traffic={DRAM: 1e8})
        runner.execute_replicates(k, "intensity", 3)
        assert runner.calibration_misses == 1
        assert runner.calibration_hits == 2

    def test_prime_matches_scalar_calibration(self):
        config = platform("gtx-titan")
        kernels = [
            KernelSpec(name=f"k{i}", flops=float(x) * 1e8, traffic={DRAM: 1e8})
            for i, x in enumerate(np.geomspace(0.25, 64.0, 8))
        ]
        primed = BenchmarkRunner(config, seed=0)
        assert primed.prime_calibration(kernels) == len(kernels)
        assert primed.prime_calibration(kernels) == 0  # all cached now
        cold = BenchmarkRunner(config, seed=0)
        for kernel in kernels:
            assert primed.calibrate(kernel) == cold.calibrate(kernel)
        # Every post-prime calibrate was a hit.
        assert primed.calibration_hits == len(kernels)

    def test_prime_deduplicates_shapes(self):
        runner = BenchmarkRunner(platform("gtx-titan"), seed=0)
        k = KernelSpec(name="k", flops=1e9, traffic={DRAM: 1e8})
        clone = KernelSpec(name="other-name", flops=1e9, traffic={DRAM: 1e8})
        assert runner.prime_calibration([k, clone, k]) == 1


class TestObservationValidation:
    def test_error_names_the_run(self):
        k = KernelSpec(name="probe-17", flops=1.0)
        with pytest.raises(ValueError) as err:
            Observation(
                platform="GTX Titan",
                benchmark="intensity",
                kernel=k,
                wall_time=0.0,
                energy=1.0,
                avg_power=1.0,
                throttled=False,
            )
        msg = str(err.value)
        assert "probe-17" in msg
        assert "GTX Titan" in msg
        assert "intensity" in msg
        assert "wall_time" in msg

    def test_energy_error_names_the_run_too(self):
        k = KernelSpec(name="probe-18", flops=1.0)
        with pytest.raises(ValueError, match="probe-18"):
            Observation(
                platform="GTX Titan",
                benchmark="peak",
                kernel=k,
                wall_time=1.0,
                energy=-2.0,
                avg_power=1.0,
                throttled=False,
            )

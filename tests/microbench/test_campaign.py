"""Parallel campaign runner: seeding, pooling, counters, messages.

The campaign runner's one hard promise is worker-count independence:
the same parent seed must produce the same Observations and fits
whether the shards run inline or across a process pool.  These tests
use scaled-down campaigns on a platform subset so the pool smoke test
stays tier-1 cheap.
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


def quick_runner(platform_ids, seed=2014, max_workers=1):
    return CampaignRunner(
        platform_ids, replace(QUICK, seed=seed), max_workers=max_workers
    )


# Module-level shard_fn seams (process pools must pickle them).

def _shard_stub(spec, wall):
    return None, ShardReport(
        platform_id=spec.platform_id,
        seed=spec.settings.seed,
        n_runs=1,
        calibration_hits=0,
        calibration_misses=0,
        wall_seconds=wall,
    )


def _sleepy_shard(spec):
    started = time.perf_counter()
    time.sleep(0.2)
    return _shard_stub(spec, time.perf_counter() - started)


def _failing_shard(spec):
    time.sleep(0.05)
    raise RuntimeError("boom")


def _hanging_shard(spec):
    time.sleep(30.0)
    return _shard_stub(spec, 30.0)


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
        with pytest.raises(ValueError, match="max_workers"):
            CampaignRunner(("gtx-titan",), max_workers=0)
        with pytest.raises(ValueError, match="duplicate"):
            CampaignRunner(("gtx-titan", "gtx-titan"))

    def test_worker_count_does_not_change_results(self):
        """The acceptance property: 1 worker and a 2-worker pool
        produce identical Observations and identical fits."""
        ids = ("gtx-titan", "nuc-gpu")
        seq = quick_runner(ids, max_workers=1)
        par = quick_runner(ids, max_workers=2)
        fits_seq = seq.run()
        fits_par = par.run()
        assert set(fits_seq) == set(fits_par) == set(ids)
        for pid in ids:
            obs_seq = fits_seq[pid].campaign.all_observations
            obs_par = fits_par[pid].campaign.all_observations
            assert obs_seq == obs_par  # frozen dataclasses: exact match
            assert (
                fits_seq[pid].capped.params.tau_flop
                == fits_par[pid].capped.params.tau_flop
            )
            assert (
                fits_seq[pid].capped.params.pi1
                == fits_par[pid].capped.params.pi1
            )

    def test_pool_smoke_run_with_report(self):
        """Tiny 2-worker process-pool campaign end to end."""
        runner = quick_runner(("gtx-titan", "xeon-phi"), max_workers=2)
        seen: list[ShardReport] = []
        fits = runner.run(progress=seen.append)
        assert set(fits) == {"gtx-titan", "xeon-phi"}
        assert sorted(r.platform_id for r in seen) == [
            "gtx-titan", "xeon-phi",
        ]
        report = runner.report
        assert report is not None
        assert report.workers == 2
        assert report.n_runs == sum(r.n_runs for r in seen)
        assert report.shard_seconds > 0.0
        assert report.parallel_efficiency > 0.0
        # report.shards is in platform order even if completion wasn't.
        assert [s.platform_id for s in report.shards] == [
            "gtx-titan", "xeon-phi",
        ]


class TestPoolAccounting:
    """The report's parallel accounting: actual pool width, burned
    time on failed/timed-out shards, efficiency bounds."""

    def test_workers_is_actual_pool_width_not_request(self):
        """max_workers > len(platforms): the pool is capped at the
        shard count and the report must say so, or
        parallel_efficiency is understated by workers/len(specs)."""
        runner = CampaignRunner(
            ("gtx-titan", "nuc-gpu"), QUICK, max_workers=8,
            shard_fn=_sleepy_shard,
        )
        runner.run()
        report = runner.report
        assert report.workers == 2
        # Two 0.2s shards on two workers: efficiency is bounded by 1
        # (pool startup keeps it below), not scaled down by the
        # requested-but-idle 6 extra workers.
        assert 0.0 < report.parallel_efficiency <= 1.0

    def test_inline_run_reports_one_worker(self):
        runner = CampaignRunner(
            ("gtx-titan", "nuc-gpu"), QUICK, max_workers=1,
            shard_fn=lambda spec: _shard_stub(spec, 0.01),
        )
        runner.run()
        assert runner.report.workers == 1

    def test_single_shard_runs_inline_regardless_of_request(self):
        runner = CampaignRunner(
            ("gtx-titan",), QUICK, max_workers=4,
            shard_fn=lambda spec: _shard_stub(spec, 0.01),
        )
        runner.run()
        assert runner.report.workers == 1

    def test_failed_pool_shards_report_burned_time(self):
        runner = CampaignRunner(
            ("gtx-titan", "nuc-gpu"), QUICK, max_workers=2,
            shard_fn=_failing_shard,
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

    def test_timeout_shards_report_elapsed_not_nominal(self):
        runner = CampaignRunner(
            ("gtx-titan", "nuc-gpu"), QUICK, max_workers=2,
            shard_fn=_hanging_shard, shard_timeout=0.4,
        )
        fits = runner.run()
        report = runner.report
        assert fits == {}
        for shard in report.shards:
            assert shard.status == "timeout"
            # Elapsed at the deadline: at least the timeout actually
            # waited out, nowhere near the 30s the shard would take.
            assert 0.4 <= shard.wall_seconds < 20.0
        assert report.shard_seconds > 0.0

    def test_cancelled_queued_shards_charged_zero(self):
        """Regression: a shard still *queued* at the deadline (pool
        narrower than the shard count, every worker hung) used to be
        charged the elapsed wall time even though it never ran,
        inflating shard_seconds with work nobody performed."""
        # Six shards on a two-wide pool: the executor runs two and
        # prefetches a few more into its call queue (those count as
        # started and cannot cancel); the deepest-queued shards never
        # leave the work queue and must cancel cleanly.
        runner = CampaignRunner(
            ("gtx-titan", "nuc-gpu", "xeon-phi", "arndale-gpu",
             "apu-gpu", "gtx-580"), QUICK,
            max_workers=2,
            shard_fn=_hanging_shard, shard_timeout=0.4,
        )
        fits = runner.run()
        report = runner.report
        assert fits == {}
        assert all(s.status == "timeout" for s in report.shards)
        never_ran = [s for s in report.shards if "not started" in s.error]
        abandoned = [s for s in report.shards if "unfinished" in s.error]
        assert len(never_ran) >= 1
        assert len(never_ran) + len(abandoned) == 6
        for shard in never_ran:
            assert shard.wall_seconds == 0.0
        # Shards the pool actually picked up burned real time.
        assert any(s.wall_seconds >= 0.4 for s in abandoned)
        # shard_seconds counts only time shards actually burned.
        assert report.shard_seconds == pytest.approx(
            sum(s.wall_seconds for s in abandoned)
        )


class TestProgressIsolation:
    """A user progress callback that raises must not kill the
    campaign, abandon pool workers, or leave report unset."""

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

    def test_pool_progress_exception_recorded(self):
        runner = CampaignRunner(
            ("gtx-titan", "nuc-gpu"), QUICK, max_workers=2,
            shard_fn=_sleepy_shard,
        )
        runner.run(progress=self._boom)
        assert runner.report is not None
        assert len(runner.progress_errors) == 2
        assert len(runner.report.shards) == 2

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

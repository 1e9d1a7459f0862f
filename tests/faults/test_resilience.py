"""Resilient execution: retry, quarantine, shard isolation.

The accounting identity under test everywhere:

    runs_attempted == n_accepted + runs_failed
    runs_failed    == retries + len(quarantined)

(every failed attempt was either retried or retired its cell), so no
run is ever silently lost -- the acceptance bar for operating a flaky
rig.
"""

from dataclasses import replace

import pytest

from repro.experiments.common import run_all_fits
from repro.faults import FaultPlan, InjectedRunFailureError
from repro.machine.kernel import DRAM, KernelSpec
from repro.machine.platforms import platform
from repro.microbench.campaign import CampaignRunner, CampaignSettings, run_shard
from repro.microbench.runner import BenchmarkRunner
from repro.microbench.suite import fit_campaign, run_campaign

QUICK = CampaignSettings(
    replicates=1,
    points_per_octave=2,
    target_duration=0.1,
    include_double=False,
)


def kernel():
    return KernelSpec(name="k", flops=1e9, traffic={DRAM: 1e9})


def assert_accounting(runner_or_report, n_accepted, quarantined):
    r = runner_or_report
    assert r.runs_attempted == n_accepted + r.runs_failed
    assert r.runs_failed == r.retries + len(quarantined)


class TestRetryAndQuarantine:
    def test_always_failing_cell_is_quarantined(self):
        runner = BenchmarkRunner(
            platform("gtx-titan"),
            seed=1,
            faults=FaultPlan(seed=1, run_failure_rate=1.0),
            max_retries=1,
        )
        obs = runner.execute_replicates(kernel(), "intensity", 1)
        assert obs == []
        assert len(runner.quarantined) == 1
        cell = runner.quarantined[0]
        assert cell.key == ("intensity", "k")
        assert cell.attempts == 2  # 1 try + 1 retry.
        assert "injected" in cell.last_error
        assert runner.runs_attempted == 2
        assert runner.runs_failed == 2
        assert runner.retries == 1
        assert_accounting(runner, n_accepted=0, quarantined=runner.quarantined)

    def test_quarantined_cell_is_skipped_without_attempts(self):
        runner = BenchmarkRunner(
            platform("gtx-titan"),
            seed=1,
            faults=FaultPlan(seed=1, run_failure_rate=1.0),
            max_retries=0,
        )
        runner.execute_replicates(kernel(), "intensity", 1)
        attempts_before = runner.runs_attempted
        obs = runner.execute_replicates(kernel(), "intensity", 2)
        assert obs == []
        assert runner.runs_attempted == attempts_before  # no new attempts.
        assert runner.runs_skipped == 2
        assert len(runner.quarantined) == 1  # not re-quarantined.

    def test_other_cells_survive_a_quarantine(self):
        runner = BenchmarkRunner(
            platform("gtx-titan"),
            seed=1,
            faults=FaultPlan(seed=1, run_failure_rate=1.0),
            max_retries=0,
        )
        runner.execute_replicates(kernel(), "intensity", 1)
        # Disarm the failures: a different cell still executes fine.
        runner.injector.plan = FaultPlan(seed=1, sample_dropout=1e-6)
        other = KernelSpec(name="k2", flops=2e9, traffic={DRAM: 1e9})
        obs = runner.execute_replicates(other, "intensity", 1)
        assert len(obs) == 1

    def test_non_fault_errors_propagate(self):
        runner = BenchmarkRunner(
            platform("gtx-titan"),
            seed=1,
            faults=FaultPlan(seed=1, sample_dropout=0.01),
        )
        with pytest.raises(ValueError):
            runner.execute_replicates(kernel(), "intensity", 0)

    def test_injected_failure_is_named(self):
        runner = BenchmarkRunner(
            platform("gtx-titan"),
            seed=1,
            faults=FaultPlan(seed=1, run_failure_rate=1.0),
        )
        with pytest.raises(InjectedRunFailureError) as err:
            runner.execute(kernel(), "intensity")
        assert err.value.run == "intensity/k#r0"


class TestFaultyCampaignCompletes:
    def test_acceptance_scenario(self):
        """10% run failures + 5% dropout: the campaign must complete,
        quarantine what keeps failing, and account for every attempt."""
        plan = FaultPlan(seed=99, run_failure_rate=0.10, sample_dropout=0.05)
        runner = CampaignRunner(
            ("gtx-titan", "nuc-gpu"),
            replace(QUICK, faults=plan, max_retries=2),
        )
        fits = runner.run()  # must not raise.
        report = runner.report
        assert report.ok
        assert report.runs_failed > 0  # the plan actually fired.
        assert report.samples_dropped > 0
        assert_accounting(
            report,
            n_accepted=report.n_runs,
            quarantined=report.quarantined_cells,
        )
        for pid in fits:
            # Degraded but usable: the fit still recovers tau_flop.
            fit = fits[pid]
            dev = abs(
                fit.capped.params.tau_flop - fit.truth.tau_flop
            ) / fit.truth.tau_flop
            assert dev < 0.25

    def test_seeded_plan_counters_repeat_exactly(self):
        """A light seeded plan on two scaled-down platforms: each
        counter repeats exactly, so a change to how a fault is drawn,
        retried or rejected moves one of them.  The dropped-sample
        count is the one that tells seed 7 from seed 8."""
        plan = FaultPlan(sample_dropout=0.02, run_failure_rate=0.05, seed=7)
        runner = CampaignRunner(
            ("gtx-titan", "nuc-gpu"),
            replace(
                CampaignSettings(seed=2014).scaled_down(),
                points_per_octave=2,
                faults=plan,
            ),
        )
        fits = runner.run()
        report = runner.report
        counters = {
            "n_runs": report.n_runs,
            "runs_attempted": report.runs_attempted,
            "runs_failed": report.runs_failed,
            "retries": report.retries,
            "rejected": report.rejected,
            "runs_skipped": report.runs_skipped,
            "samples_dropped": report.samples_dropped,
            "quarantined_cells": len(report.quarantined_cells),
            "failed_shards": len(report.failed_shards),
            "fits": len(fits),
        }
        assert counters == {
            "n_runs": 46,
            "runs_attempted": 47,
            "runs_failed": 1,
            "retries": 1,
            "rejected": 0,
            "runs_skipped": 0,
            "samples_dropped": 249,
            "quarantined_cells": 0,
            "failed_shards": 0,
            "fits": 2,
        }
        assert_accounting(
            report,
            n_accepted=report.n_runs,
            quarantined=report.quarantined_cells,
        )

    def test_heavy_failures_quarantine_cells_and_fit_degrades(self):
        plan = FaultPlan(seed=5, run_failure_rate=0.6)
        runner = BenchmarkRunner(
            platform("gtx-titan"), seed=3, faults=plan, max_retries=1
        )
        campaign = run_campaign(
            platform("gtx-titan"),
            CampaignSettings(replicates=1, include_double=False),
            runner=runner,
        )
        assert len(campaign.quarantined) > 0
        assert campaign.n_runs > 0  # survivors made it through.
        assert_accounting(
            runner, n_accepted=campaign.n_runs, quarantined=runner.quarantined
        )
        fitted = fit_campaign(campaign)  # degrades gracefully.
        assert fitted.capped.params.tau_flop > 0


# ---------------------------------------------------------------------------
# Shard-level isolation.
# ---------------------------------------------------------------------------


def crashing_shard(crashed):
    def shard_fn(spec):
        if spec.platform_id == crashed:
            raise RuntimeError("simulated shard crash")
        return run_shard(spec)

    return shard_fn


class TestShardIsolation:
    # The 1-based position of the crashing shard: a crash in the first
    # shard must not stop the loop before the second one runs.
    @pytest.mark.parametrize("crash_at", [1, 2])
    def test_crashing_shard_is_contained(self, crash_at):
        pids = ("gtx-titan", "nuc-gpu")
        crashed = pids[crash_at - 1]
        (survivor,) = set(pids) - {crashed}
        runner = CampaignRunner(pids, QUICK, shard_fn=crashing_shard(crashed))
        fits = runner.run()
        report = runner.report
        assert set(fits) == {survivor}  # the crash took one platform.
        assert not report.ok
        by_pid = {s.platform_id: s for s in report.shards}
        assert by_pid[survivor].status == "ok"
        assert by_pid[crashed].status == "failed"
        assert "RuntimeError" in by_pid[crashed].error
        assert crashed in report.describe_losses()
        assert survivor not in report.describe_losses()
        # The report still covers every requested platform, in order.
        assert [s.platform_id for s in report.shards] == list(pids)


class TestRunAllFitsLosses:
    """A platform whose shard fails is an error, not a missing key."""

    @pytest.mark.parametrize("n_platforms", [1, 2])
    def test_failed_platform_raises(self, n_platforms):
        pids = ("gtx-titan", "nuc-gpu")[:n_platforms]
        settings = CampaignSettings(
            faults=FaultPlan(seed=1, run_failure_rate=1.0), max_retries=0
        ).scaled_down()
        with pytest.raises(RuntimeError) as err:
            run_all_fits(settings, pids)
        message = str(err.value)
        for pid in pids:
            assert f"shard {pid}: failed" in message
        assert "no observations to fit" in message

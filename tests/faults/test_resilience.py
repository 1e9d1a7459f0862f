"""Resilient execution: retry, quarantine, shard isolation, deadlines.

The accounting identity under test everywhere:

    runs_attempted == n_accepted + runs_failed
    runs_failed    == retries + len(quarantined)

(every failed attempt was either retried or retired its cell), so no
run is ever silently lost -- the acceptance bar for operating a flaky
rig.
"""

import subprocess
import sys
import textwrap
import time
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
            max_workers=2,
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
# Shard-level isolation.  The shard functions must live at module level
# so the process pool can pickle them.
# ---------------------------------------------------------------------------


def crashing_shard(spec):
    if spec.platform_id == "nuc-gpu":
        raise RuntimeError("simulated worker crash")
    return run_shard(spec)


def sleeping_shard(spec):
    time.sleep(1.5)
    return run_shard(spec)


def quick_runner(shard_fn, **kwargs):
    return CampaignRunner(
        ("gtx-titan", "nuc-gpu"), QUICK, shard_fn=shard_fn, **kwargs
    )


class TestShardIsolation:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_crashing_shard_is_contained(self, max_workers):
        runner = quick_runner(crashing_shard, max_workers=max_workers)
        fits = runner.run()
        report = runner.report
        assert set(fits) == {"gtx-titan"}  # the crash took one platform.
        assert not report.ok
        by_pid = {s.platform_id: s for s in report.shards}
        assert by_pid["gtx-titan"].status == "ok"
        assert by_pid["nuc-gpu"].status == "failed"
        assert "RuntimeError" in by_pid["nuc-gpu"].error
        assert "nuc-gpu" in report.describe_losses()
        # The report still covers every requested platform, in order.
        assert [s.platform_id for s in report.shards] == [
            "gtx-titan", "nuc-gpu",
        ]

    def test_pool_deadline_times_out_stragglers(self):
        runner = quick_runner(
            sleeping_shard, max_workers=2, shard_timeout=0.3
        )
        started = time.perf_counter()
        fits = runner.run()
        elapsed = time.perf_counter() - started
        assert fits == {}
        assert elapsed < 1.4  # did not wait out the 1.5s sleepers.
        assert all(s.status == "timeout" for s in runner.report.shards)
        assert "deadline" in runner.report.shards[0].error

    def test_deadline_stragglers_do_not_block_interpreter_exit(
        self, tmp_path
    ):
        # Regression: shutdown(wait=False) leaves hung workers for the
        # executor's atexit join, so without terminating them run()
        # returns on time but the *interpreter* hangs until the shard
        # finishes (30s here).
        script = tmp_path / "hang.py"
        script.write_text(textwrap.dedent("""\
            import time
            from repro.microbench.campaign import CampaignRunner

            def hung_shard(spec):
                time.sleep(30.0)

            if __name__ == "__main__":
                CampaignRunner(
                    ("gtx-titan", "nuc-gpu"),
                    shard_fn=hung_shard,
                    max_workers=2,
                    shard_timeout=0.5,
                ).run()
        """))
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, timeout=25
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert time.perf_counter() - started < 15.0

    def test_inline_deadline_skips_unstarted_shards(self):
        runner = quick_runner(
            sleeping_shard, max_workers=1, shard_timeout=0.5
        )
        fits = runner.run()
        by_pid = {s.platform_id: s for s in runner.report.shards}
        # The first shard ran past the deadline inline (uninterruptible)
        # and completed; the second was never started.
        assert by_pid["gtx-titan"].status == "ok"
        assert by_pid["nuc-gpu"].status == "timeout"
        assert set(fits) == {"gtx-titan"}

    def test_shard_timeout_validation(self):
        with pytest.raises(ValueError):
            quick_runner(run_shard, shard_timeout=0.0)


class TestRunAllFitsLosses:
    """A platform whose shard fails is an error, not a missing key --
    inline and pooled alike."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_failed_platform_raises(self, max_workers):
        settings = CampaignSettings(
            faults=FaultPlan(seed=1, run_failure_rate=1.0), max_retries=0
        ).scaled_down()
        with pytest.raises(RuntimeError) as err:
            run_all_fits(
                settings, ("gtx-titan", "nuc-gpu"), max_workers=max_workers
            )
        message = str(err.value)
        assert "shard gtx-titan: failed" in message
        assert "shard nuc-gpu: failed" in message
        assert "no observations to fit" in message

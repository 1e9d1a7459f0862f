"""Batched sweeps ≡ the per-run path, on every draw.

Without an active fault plan ``BenchmarkRunner`` runs each sweep as one
batch: one ``Engine.run_batch`` over the calibrated runs in kernel-major,
replicate-minor order and one ``MeasurementRig.measure_batch``.  Nothing
about a run may move: every Observation's wall time, energy and average
power (compared by ``float.hex``), kernel, throttle flag and replicate,
and the runner's counters, must equal what the per-run
``execute_resilient`` path -- the batch path's oracle -- produces from
the same seed.  One draw taken in another order (say, replicates
before kernels) changes every later run.  The calibration cache must
hold the same factors (compared by ``float.hex``): a batched sweep
dry-runs its uncached kernel shapes in one noise-free batch, the
per-run path each through ``Engine.run``.
"""

import pytest

from repro.machine.kernel import DRAM, KernelSpec
from repro.machine.platforms import PLATFORM_IDS, platform
from repro.microbench.runner import BenchmarkRunner
from repro.microbench.suite import CampaignSettings, run_campaign


class PerRunRunner(BenchmarkRunner):
    """Runs every sweep one run at a time through ``execute_resilient``."""

    def execute_sweep(self, cells, replicates):
        out = []
        for kernel, benchmark in cells:
            for r in range(replicates):
                obs = self.execute_resilient(kernel, benchmark, replicate=r)
                if obs is not None:
                    out.append(obs)
        return out


def campaign_record(runner_cls, pid, settings, seed):
    runner = runner_cls(
        platform(pid), seed=seed, target_duration=settings.target_duration
    )
    campaign = run_campaign(platform(pid), settings, runner=runner)
    observations = [
        (
            obs.benchmark,
            obs.kernel,
            obs.wall_time.hex(),
            obs.energy.hex(),
            obs.avg_power.hex(),
            obs.throttled,
            obs.replicate,
        )
        for obs in campaign.all_observations
    ]
    counters = (
        runner.runs_attempted,
        runner.calibration_hits,
        runner.calibration_misses,
    )
    cache = runner._calibration_cache
    factors = {key: factor.hex() for key, factor in cache.items()}
    return observations, counters, factors


SETTINGS = [
    CampaignSettings(seed=2014),
    CampaignSettings(seed=7),
    CampaignSettings(seed=1),
    CampaignSettings(seed=2014).scaled_down(),
]


@pytest.mark.parametrize("pid", PLATFORM_IDS)
@pytest.mark.parametrize(
    "settings", SETTINGS, ids=["2014", "7", "1", "2014-scaled"]
)
def test_batched_campaign_equals_per_run_path(settings, pid):
    batched = campaign_record(BenchmarkRunner, pid, settings, settings.seed)
    per_run = campaign_record(PerRunRunner, pid, settings, settings.seed)
    assert batched[0] == per_run[0]
    assert batched[1] == per_run[1]
    assert batched[2] == per_run[2]


@pytest.mark.parametrize("pid", ["arndale-cpu", "gtx-titan"])
def test_noise_free_runner(pid):
    # seed=None: no generator, so the batch measures traces the
    # noise-free engine builds lazily (throttled ones from schedules).
    settings = CampaignSettings().scaled_down()
    batched = campaign_record(BenchmarkRunner, pid, settings, seed=None)
    per_run = campaign_record(PerRunRunner, pid, settings, seed=None)
    assert batched == per_run
    assert any(row[5] for row in batched[0])  # some runs throttled


def test_sweep_runs_are_kernel_major():
    runner = BenchmarkRunner(platform("gtx-titan"), seed=3)
    cells = [
        (KernelSpec(name="a", flops=1e9, traffic={DRAM: 1e8}), "intensity"),
        (KernelSpec(name="b", flops=4e9, traffic={DRAM: 1e8}), "intensity"),
    ]
    obs = runner.execute_sweep(cells, 3)
    assert [(o.kernel.name, o.replicate) for o in obs] == [
        ("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1), ("b", 2),
    ]
    assert runner.runs_attempted == 6
    assert (runner.calibration_misses, runner.calibration_hits) == (2, 4)

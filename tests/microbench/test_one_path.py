"""One path: a platform's fit depends only on (platform, settings).

Every way to campaign and fit a platform -- ``fit_platform`` itself, a
bare ``run_campaign`` on the same settings, the fitted-theta
resolution serve and fleet use, a one-platform campaign runner and a
pooled twelve-platform runner in reversed order -- must measure the
same campaign and fit the same theta-hat, bit for bit.
Campaigns compare by dataclass equality (exact floats); fitted
parameters compare by pickle bytes.
"""

import pickle

import pytest

from repro.experiments.common import fitted_platform_config
from repro.faults import FaultPlan
from repro.machine.platforms import PLATFORM_IDS, platform
from repro.microbench.campaign import CampaignRunner, CampaignSettings, fit_platform
from repro.microbench.suite import run_campaign

SEEDS = (2014, 7)
FAULTED = CampaignSettings(
    faults=FaultPlan(seed=3, sample_dropout=0.02, run_failure_rate=0.05)
).scaled_down()
FAULTED_PLATFORMS = ("gtx-titan", "nuc-gpu")


def runner_fits(platform_ids, settings, max_workers):
    runner = CampaignRunner(platform_ids, settings, max_workers=max_workers)
    fits = runner.run()
    assert runner.report.ok, runner.report.describe_losses()
    return fits


def assert_one_fit(pid, settings, pooled_fit):
    reference = fit_platform(pid, settings)
    assert run_campaign(platform(pid), settings) == reference.campaign
    expected = pickle.dumps(reference.fitted_params)
    (alone,) = runner_fits((pid,), settings, max_workers=1).values()
    for fit in (alone, pooled_fit):
        assert fit.campaign == reference.campaign
        assert pickle.dumps(fit.fitted_params) == expected
    resolved = fitted_platform_config(pid, settings)
    assert pickle.dumps(resolved.truth) == expected


@pytest.fixture(scope="module", params=SEEDS)
def pooled(request):
    """All twelve platforms, reversed, over a two-worker pool."""
    settings = CampaignSettings(seed=request.param).scaled_down()
    fits = runner_fits(tuple(reversed(PLATFORM_IDS)), settings, max_workers=2)
    return settings, fits


@pytest.mark.parametrize("pid", PLATFORM_IDS)
def test_every_path_fits_the_same_theta(pooled, pid):
    settings, fits = pooled
    assert_one_fit(pid, settings, fits[pid])


def test_faulted_paths_agree():
    fits = runner_fits(FAULTED_PLATFORMS[::-1], FAULTED, max_workers=2)
    for pid in FAULTED_PLATFORMS:
        assert_one_fit(pid, FAULTED, fits[pid])

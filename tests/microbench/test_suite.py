"""Integration tests: full campaigns and parameter recovery."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.fitting import fit_cache_level, fit_random_access
from repro.machine.platforms import platform
from repro.microbench.suite import (
    CampaignSettings,
    fit_campaign,
    run_campaign,
    to_fit_observations,
)


@pytest.fixture(scope="module")
def titan_campaign():
    return run_campaign(
        platform("gtx-titan"), CampaignSettings(seed=3, replicates=2)
    )


@pytest.fixture(scope="module")
def titan_fitted(titan_campaign):
    return fit_campaign(titan_campaign)


class TestCampaignStructure:
    def test_components_present(self, titan_campaign):
        assert len(titan_campaign.intensity_single) > 20
        assert len(titan_campaign.intensity_double) > 20
        assert set(titan_campaign.cache_obs) == {"L1", "L2"}
        assert len(titan_campaign.chase_obs) >= 2
        assert len(titan_campaign.peak_single) >= 2
        assert len(titan_campaign.stream_obs) >= 2

    def test_n_runs_counts_everything(self, titan_campaign):
        total = (
            len(titan_campaign.intensity_single)
            + len(titan_campaign.intensity_double)
            + sum(len(v) for v in titan_campaign.cache_obs.values())
            + len(titan_campaign.chase_obs)
            + len(titan_campaign.peak_single)
            + len(titan_campaign.peak_double)
            + len(titan_campaign.stream_obs)
        )
        assert titan_campaign.n_runs == total

    def test_opt_outs(self):
        campaign = run_campaign(
            platform("arndale-cpu"),
            CampaignSettings(seed=0, replicates=1, include_double=False),
        )
        assert campaign.intensity_double == []
        assert campaign.peak_double == []

    def test_platform_without_double_skips_it(self):
        campaign = run_campaign(
            platform("arndale-gpu"), CampaignSettings(seed=0, replicates=1)
        )
        assert campaign.intensity_double == []
        assert campaign.peak_double == []


class TestToFitObservations:
    def test_columns(self, titan_campaign):
        obs = to_fit_observations(titan_campaign.single_precision_runs)
        assert obs.n == len(titan_campaign.single_precision_runs)
        assert set(obs.levels) == {"L1", "L2"}
        assert obs.has_random

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            to_fit_observations([])


class TestParameterRecovery:
    def test_core_parameters_recovered(self, titan_fitted):
        truth = titan_fitted.truth
        fitted = titan_fitted.capped.params
        assert fitted.tau_flop == pytest.approx(truth.tau_flop, rel=0.08)
        assert fitted.tau_mem == pytest.approx(truth.tau_mem, rel=0.08)
        assert fitted.eps_flop == pytest.approx(truth.eps_flop, rel=0.15)
        assert fitted.eps_mem == pytest.approx(truth.eps_mem, rel=0.15)
        assert fitted.pi1 == pytest.approx(truth.pi1, rel=0.10)
        assert fitted.delta_pi == pytest.approx(truth.delta_pi, rel=0.15)

    def test_hierarchy_recovered(self, titan_fitted):
        truth = titan_fitted.truth
        caches = {c.name: c for c in titan_fitted.caches}
        for name in ("L1", "L2"):
            assert caches[name].eps_byte == pytest.approx(
                truth.cache_level(name).eps_byte, rel=0.3
            )
            assert caches[name].capacity == truth.cache_level(name).capacity
        assert titan_fitted.random.eps_access == pytest.approx(
            truth.random.eps_access, rel=0.3
        )

    def test_double_precision_recovered(self, titan_fitted):
        truth = titan_fitted.truth
        assert titan_fitted.eps_flop_double == pytest.approx(
            truth.eps_flop_double, rel=0.2
        )
        assert titan_fitted.sustained_flops_double == pytest.approx(
            1.0 / truth.tau_flop_double, rel=0.1
        )

    def test_fitted_params_assemble(self, titan_fitted):
        row = titan_fitted.fitted_params
        assert row.name == "GTX Titan"
        assert row.eps_flop_double is not None
        assert row.random is not None
        assert len(row.caches) == 2

    def test_sustained_peaks(self, titan_fitted):
        truth = titan_fitted.truth
        assert titan_fitted.sustained_flops == pytest.approx(
            truth.peak_flops, rel=0.05
        )
        assert titan_fitted.sustained_bandwidth == pytest.approx(
            truth.peak_bandwidth, rel=0.05
        )

    def test_capped_fit_beats_uncapped(self, titan_fitted):
        assert (
            titan_fitted.capped.diagnostics.rms_log_residual
            <= titan_fitted.uncapped.diagnostics.rms_log_residual + 1e-12
        )


class TestCrossCheckEstimators:
    """The standalone per-level estimators agree with the joint fit."""

    def test_cache_level_cross_check(self, titan_campaign, titan_fitted):
        pi1 = titan_fitted.capped.params.pi1
        obs = titan_campaign.cache_obs["L2"]
        standalone = fit_cache_level(
            "L2",
            Q=np.array([o.kernel.traffic["L2"] for o in obs]),
            T=np.array([o.wall_time for o in obs]),
            E=np.array([o.energy for o in obs]),
            pi1=pi1,
        )
        joint = next(c for c in titan_fitted.caches if c.name == "L2")
        assert standalone.eps_byte == pytest.approx(joint.eps_byte, rel=0.15)

    def test_random_cross_check(self, titan_campaign, titan_fitted):
        pi1 = titan_fitted.capped.params.pi1
        obs = titan_campaign.chase_obs
        standalone = fit_random_access(
            accesses=np.array([o.kernel.random_accesses for o in obs]),
            T=np.array([o.wall_time for o in obs]),
            E=np.array([o.energy for o in obs]),
            pi1=pi1,
        )
        assert standalone.eps_access == pytest.approx(
            titan_fitted.random.eps_access, rel=0.2
        )


class TestDeterminism:
    def test_same_seed_same_campaign(self):
        cfg = platform("pandaboard-es")
        settings = CampaignSettings(seed=9, replicates=1, include_double=False)
        a = run_campaign(cfg, settings)
        b = run_campaign(cfg, settings)
        ta = [o.wall_time for o in a.single_precision_runs]
        tb = [o.wall_time for o in b.single_precision_runs]
        assert ta == tb

    def test_different_seed_differs(self):
        cfg = platform("pandaboard-es")
        settings = CampaignSettings(seed=9, replicates=1, include_double=False)
        a = run_campaign(cfg, settings)
        b = run_campaign(cfg, replace(settings, seed=10))
        ta = [o.wall_time for o in a.single_precision_runs]
        tb = [o.wall_time for o in b.single_precision_runs]
        assert ta != tb

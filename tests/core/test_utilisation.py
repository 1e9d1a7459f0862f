"""Tests for the utilisation-aware capping model (paper's future work)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import model
from repro.core.utilisation import UtilisationModel, fit_slope, predict, utilisations
from repro.machine.config import PlatformEffects
from repro.machine.governor import GovernorSettings
from repro.machine.noise import NoiseSpec
from repro.machine.platforms import platform
from repro.microbench.suite import CampaignSettings, fit_campaign, run_campaign


def clean_config(pid: str, slope: float):
    """A platform whose ONLY second-order effect is utilisation scaling."""
    cfg = platform(pid)
    return replace(
        cfg,
        effects=PlatformEffects(
            ridge_smoothing=0.0,
            governor=GovernorSettings(period=1e-4, hysteresis=0.005, gain=0.05),
            noise=NoiseSpec(time_sigma=0.003, power_sigma=0.003),
            utilisation_energy_slope=slope,
        ),
    )


class TestForwardModel:
    def test_zero_slope_recovers_capped_model(self, simple_machine):
        W = np.logspace(9, 12, 20)
        Q = np.full_like(W, 1e10)
        t, e = predict(simple_machine, W, Q, 0.0)
        assert np.allclose(t, model.time(simple_machine, W, Q))
        assert np.allclose(e, model.energy(simple_machine, W, Q))

    def test_slope_validation(self, simple_machine):
        with pytest.raises(ValueError):
            predict(simple_machine, np.array([1e9]), np.array([1e9]), 1.0)
        with pytest.raises(ValueError):
            predict(simple_machine, np.array([1e9]), np.array([1e9]), -0.1)

    def test_utilisations_bounds_and_limits(self, simple_machine):
        W = np.array([1e12, 1e9, 0.0])
        Q = np.array([1e9, 1e12, 1e9])
        u_f, u_m = utilisations(simple_machine, W, Q)
        assert np.all((0 <= u_f) & (u_f <= 1))
        assert np.all((0 <= u_m) & (u_m <= 1))
        assert u_f[0] == 1.0  # compute-bound: flop unit saturated
        assert u_m[1] == 1.0  # memory-bound
        assert u_f[2] == 0.0  # no flops at all

    def test_slope_cuts_energy_most_at_imbalance(self, simple_machine):
        Q = 1e10
        balanced_w = simple_machine.time_balance * Q
        _, e0_bal = predict(simple_machine, np.array([balanced_w]), np.array([Q]), 0.0)
        _, e3_bal = predict(simple_machine, np.array([balanced_w]), np.array([Q]), 0.3)
        _, e0_mem = predict(simple_machine, np.array([balanced_w / 64]), np.array([Q]), 0.0)
        _, e3_mem = predict(simple_machine, np.array([balanced_w / 64]), np.array([Q]), 0.3)
        saving_bal = 1 - e3_bal[0] / e0_bal[0]
        saving_mem = 1 - e3_mem[0] / e0_mem[0]
        assert saving_mem > saving_bal  # the idle flop pipeline pays less

    def test_slope_speeds_up_cap_bound_work(self, simple_machine):
        # Inside the cap region but off exact balance (at I = B_tau both
        # utilisations are 1 and the effect vanishes): scaled energy
        # means less throttling.
        Q = 1e10
        W = 7.0 * Q  # cap region is [5, 20] flop/B; u_flop = 0.7
        t0, _ = predict(simple_machine, np.array([W]), np.array([Q]), 0.0)
        t3, _ = predict(simple_machine, np.array([W]), np.array([Q]), 0.3)
        assert t3[0] < t0[0]


class TestSlopeRecovery:
    @pytest.mark.parametrize("true_slope", [0.0, 0.15])
    def test_recovers_slope_on_clean_campaign(self, true_slope):
        cfg = clean_config("arndale-gpu", true_slope)
        campaign = run_campaign(
            cfg, CampaignSettings(seed=11, include_double=False)
        )
        fitted = fit_campaign(campaign)
        um = fit_slope(fitted.capped, fitted.fit_observations)
        assert um.slope == pytest.approx(true_slope, abs=0.03)

    def test_unshrinks_marginal_energies(self):
        """The plain capped fit absorbs the utilisation effect into
        shrunken epsilons; the joint fit restores them."""
        cfg = clean_config("arndale-gpu", 0.15)
        campaign = run_campaign(
            cfg, CampaignSettings(seed=11, include_double=False)
        )
        fitted = fit_campaign(campaign)
        truth = cfg.truth
        plain_dev = abs(fitted.capped.params.eps_flop - truth.eps_flop)
        um = fit_slope(fitted.capped, fitted.fit_observations)
        joint_dev = abs(um.base.eps_flop - truth.eps_flop)
        assert joint_dev < plain_dev
        assert um.base.eps_flop == pytest.approx(truth.eps_flop, rel=0.05)

    def test_requires_capped_base(self):
        cfg = clean_config("arndale-gpu", 0.1)
        campaign = run_campaign(
            cfg, CampaignSettings(seed=3, include_double=False)
        )
        fitted = fit_campaign(campaign)
        with pytest.raises(ValueError, match="capped"):
            fit_slope(fitted.uncapped, fitted.fit_observations)

    def test_realistic_platform_confounding_is_bounded(self):
        """On the fully-realistic Arndale GPU the slope estimate is
        attenuated by the other cap-bending effects (the documented
        confounding) but the model's fit never degrades much."""
        fitted = fit_campaign(
            run_campaign(
                platform("arndale-gpu"),
                CampaignSettings(seed=11, include_double=False),
            )
        )
        obs = fitted.fit_observations
        um = fit_slope(fitted.capped, obs)
        assert 0.0 <= um.slope <= 0.3
        plain = UtilisationModel(
            base=fitted.capped.params, slope=0.0, rms_energy_residual=0.0
        )
        plain_err = np.median(np.abs(plain.power_errors(obs)))
        joint_err = np.median(np.abs(um.power_errors(obs)))
        assert joint_err <= plain_err + 0.02


class TestUtilisationModelObject:
    def test_power_errors_scope(self, simple_machine):
        from repro.core.fitting import FitObservations

        W = np.concatenate([np.logspace(9, 12, 10), [0.0]])
        Q = np.concatenate([np.full(10, 1e10), [1e10]])
        T = np.asarray(model.time(simple_machine, W, Q))
        E = np.asarray(model.energy(simple_machine, W, Q))
        obs = FitObservations(W=W, Q=Q, T=T, E=E)
        um = UtilisationModel(base=simple_machine, slope=0.0, rms_energy_residual=0.0)
        errors = um.power_errors(obs)
        assert len(errors) == 10  # the flop-free row is out of scope
        assert np.all(np.abs(errors) < 1e-9)

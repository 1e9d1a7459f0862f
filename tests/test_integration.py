"""Cross-layer integration tests.

These tie the whole stack together: engine physics vs closed-form
model on the real platforms, measurement fidelity end to end, and the
full campaign -> fit -> error-analysis chain behaving like the paper
describes.
"""

import numpy as np
import pytest

from repro.core import model
from repro.machine.engine import Engine
from repro.machine.kernel import DRAM, KernelSpec
from repro.machine.platforms import PLATFORM_IDS, platform
from repro.measurement.energy import MeasurementRig
from repro.measurement.powermon import PowerMon


@pytest.mark.parametrize("pid", PLATFORM_IDS)
class TestEngineTracksModelPerPlatform:
    """Noise-free engine runs agree with the capped model within the
    second-order effects (ridge rounding, governor undershoot, guard
    band, utilisation scaling) on every platform."""

    def test_time_within_second_order_envelope(self, pid):
        cfg = platform(pid)
        engine = Engine(cfg, rng=None)
        Q = 1e9
        for exponent in (-2, 0, 2, 5, 8):
            I = 2.0 ** exponent
            kernel = KernelSpec(
                name=f"probe[{I}]", flops=I * Q, traffic={DRAM: Q}
            )
            result = engine.run(kernel)
            expected = float(model.time(cfg.truth, kernel.flops, Q))
            ratio = result.wall_time / expected
            # Never meaningfully faster than the model (utilisation
            # scaling can shave energy, and hence cap-bound time, by up
            # to the slope), never slower than rounding+guard explain.
            slope = cfg.effects.utilisation_energy_slope
            assert ratio >= 1.0 - slope - 0.02, (pid, I, ratio)
            ceiling = (
                2.0 ** cfg.effects.ridge_smoothing
                / (1.0 - cfg.effects.cap_guard_band)
                * 1.06
            )
            assert ratio <= ceiling, (pid, I, ratio)

    def test_measured_energy_tracks_trace(self, pid):
        cfg = platform(pid)
        engine = Engine(cfg, rng=None)
        rig = MeasurementRig(cfg, powermon=PowerMon(resolution=0.0))
        kernel = KernelSpec(name="probe", flops=4e9, traffic={DRAM: 1e9})
        result = engine.run(kernel)
        measured = rig.measure(result.trace)
        assert measured.energy == pytest.approx(result.true_energy, rel=0.02)
        assert measured.wall_time == pytest.approx(result.wall_time)


class TestPipelineSanity:
    def test_fig4_conclusion_stable_across_seeds(self):
        """The headline Fig. 4 conclusion (capped model no worse) is a
        property of the system, not of one seed."""
        from repro.core.errors import compare_models
        from repro.microbench.campaign import CampaignSettings, fit_platform

        for seed in (1, 99):
            fp = fit_platform(
                "arndale-cpu", CampaignSettings(seed=seed, replicates=2)
            )
            cmp = compare_models(
                fp.uncapped, fp.capped, fp.fit_observations, platform="a"
            )
            assert cmp.capped.stats.iqr <= cmp.uncapped.stats.iqr
            assert cmp.uncapped.median > 0

    def test_campaign_energy_conservation(self):
        """Measured energy across a campaign equals avg power x time
        per run (the estimator's defining identity)."""
        from repro.microbench.suite import CampaignSettings, run_campaign

        campaign = run_campaign(
            platform("nuc-cpu"),
            CampaignSettings(seed=5, replicates=1, include_double=False),
        )
        for obs in campaign.all_observations:
            assert obs.energy == pytest.approx(
                obs.avg_power * obs.wall_time, rel=1e-9
            )

    def test_throttled_runs_flagged_only_in_cap_region(self):
        """The governor's throttle flag agrees with the model's regime
        classification on a clean platform."""
        from repro.core.model import Regime

        cfg = platform("gtx-680")
        engine = Engine(cfg, rng=None)
        Q = 1e9
        for exponent in np.linspace(-2, 8, 15):
            I = float(2.0 ** exponent)
            kernel = KernelSpec(name="k", flops=I * Q, traffic={DRAM: Q})
            result = engine.run(kernel)
            regime = model.regime(cfg.truth, I)
            if regime == Regime.CAP:
                assert result.throttled, I
            # Near-boundary points may throttle due to ridge rounding,
            # so the converse is only checked far from the cap region.
            lower, upper = (
                cfg.truth.time_balance_lower,
                cfg.truth.time_balance_upper,
            )
            if I < lower / 2 or I > upper * 2:
                assert not result.throttled, I

    def test_observed_max_power_close_to_annotation(self):
        """The campaign's highest observed power approaches pi1 +
        delta_pi (Fig. 5's normalisation makes sense)."""
        from repro.microbench.suite import CampaignSettings, run_campaign

        cfg = platform("gtx-titan")
        campaign = run_campaign(
            cfg, CampaignSettings(seed=4, replicates=1, include_double=False)
        )
        max_power = max(o.avg_power for o in campaign.all_observations)
        budget = cfg.truth.pi1 + cfg.truth.delta_pi
        assert 0.85 * budget <= max_power <= 1.05 * budget

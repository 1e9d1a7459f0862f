"""Tests for the fit-uncertainty quantification."""

import pytest

from repro.experiments.common import CampaignSettings
from repro.experiments.uncertainty import quantify
from repro.faults import FaultPlan


@pytest.fixture(scope="module")
def titan_uq():
    return quantify(
        "gtx-titan",
        n_seeds=3,
        settings=CampaignSettings(replicates=1, points_per_octave=2),
    )


class TestQuantify:
    def test_needs_multiple_seeds(self):
        with pytest.raises(ValueError):
            quantify("gtx-titan", n_seeds=1)

    def test_campaigns_keep_the_fault_plan_and_retry_budget(self):
        faulted = quantify(
            "gtx-titan",
            n_seeds=2,
            settings=CampaignSettings(
                faults=FaultPlan(seed=1, run_failure_rate=0.3), max_retries=0
            ).scaled_down(),
        )
        # With no retries a 30% run-failure rate must retire cells.
        assert all(fit.campaign.quarantined for fit in faulted.fits)

    def test_structure(self, titan_uq):
        assert titan_uq.n_seeds == 3
        assert set(titan_uq.spreads) == {
            "tau_flop", "tau_mem", "eps_flop", "eps_mem", "pi1", "delta_pi",
        }
        assert len(titan_uq.fits) == 3

    def test_seeds_produce_distinct_fits(self, titan_uq):
        pi1_values = titan_uq.spreads["pi1"].values
        assert len(set(pi1_values.tolist())) == 3

    def test_dispersion_is_small(self, titan_uq):
        """The pipeline pins every parameter within a few percent."""
        for name, spread in titan_uq.spreads.items():
            assert spread.cv < 0.10, name
            assert abs(spread.median_bias) < 0.10, name

    def test_anchor_bias_direction(self, titan_uq):
        """Time costs anchor to the best observed run, so their
        seed-median sits slightly *below* the truth -- the documented
        sustained-peak bias."""
        assert titan_uq.spreads["tau_flop"].median_bias < 0.01
        assert titan_uq.spreads["tau_mem"].median_bias < 0.01

    def test_table_renders(self, titan_uq):
        text = titan_uq.to_table().render()
        assert "Fit uncertainty" in text
        assert "delta_pi" in text

    def test_worst_cv(self, titan_uq):
        name, cv = titan_uq.worst_cv
        assert name in titan_uq.spreads
        assert cv == max(s.cv for s in titan_uq.spreads.values())

"""The regression gate: threshold + absolute slack, drift notes."""

import pytest

from repro.trajectory import (
    REPORT_KIND,
    SCHEMA_VERSION,
    SUITE_CAMPAIGNS,
    compare_reports,
    environment_fingerprint,
)


def report_with(walls=None, extra=None, env=None):
    walls = walls or {}
    campaigns = {}
    for name in SUITE_CAMPAIGNS:
        campaigns[name] = {
            "wall_seconds": walls.get(name, 1.0),
            "n_runs": 100,
        }
    for name, metrics in (extra or {}).items():
        campaigns.setdefault(name, {})
        campaigns[name].update(metrics)
    return {
        "schema": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "environment": env or environment_fingerprint(),
        "campaigns": campaigns,
    }


class TestGate:
    def test_identical_reports_pass(self):
        result = compare_reports(report_with(), report_with())
        assert result.ok
        assert result.regressions == ()
        assert "no wall-time regressions" in result.describe()

    def test_regression_beyond_threshold_fails(self):
        result = compare_reports(
            report_with({"capped_sweep": 1.2}),
            report_with({"capped_sweep": 1.0}),
        )
        assert not result.ok
        (reg,) = result.regressions
        assert reg.campaign == "capped_sweep"
        assert reg.ratio == pytest.approx(1.2)
        assert "capped_sweep" in result.describe()

    def test_within_threshold_passes(self):
        result = compare_reports(
            report_with({"capped_sweep": 1.09}),
            report_with({"capped_sweep": 1.0}),
        )
        assert result.ok

    def test_speedup_passes(self):
        result = compare_reports(
            report_with({"capped_sweep": 0.5}),
            report_with({"capped_sweep": 1.0}),
        )
        assert result.ok

    def test_absolute_slack_shields_tiny_campaigns(self):
        """A 3x relative blowup on a 1 ms campaign is scheduler noise,
        not a regression: the absolute min_delta must shield it."""
        result = compare_reports(
            report_with({"uncapped_sweep": 0.003}),
            report_with({"uncapped_sweep": 0.001}),
        )
        assert result.ok

    def test_slack_does_not_hide_large_absolute_regressions(self):
        result = compare_reports(
            report_with({"cached_campaign": 2.0}),
            report_with({"cached_campaign": 1.0}),
        )
        assert not result.ok

    def test_min_delta_alone_not_enough(self):
        """A 60 ms slowdown on a 10 s campaign clears min_delta but not
        the relative threshold: still a pass."""
        result = compare_reports(
            report_with({"cached_campaign": 10.06}),
            report_with({"cached_campaign": 10.0}),
        )
        assert result.ok

    def test_missing_campaign_is_regression(self):
        current = report_with()
        del current["campaigns"]["faulted_campaign"]
        # Bypass suite validation: simulate a truncated current report.
        result = compare_reports(current, report_with())
        assert not result.ok
        (reg,) = result.regressions
        assert reg.campaign == "faulted_campaign"
        assert reg.current_seconds == float("inf")

    def test_custom_threshold(self):
        current = report_with({"capped_sweep": 1.2})
        baseline = report_with({"capped_sweep": 1.0})
        assert not compare_reports(current, baseline, threshold=0.10).ok
        assert compare_reports(current, baseline, threshold=0.25).ok

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            compare_reports(report_with(), report_with(), threshold=-0.1)
        with pytest.raises(ValueError):
            compare_reports(report_with(), report_with(), min_delta=-1.0)


class TestDriftNotes:
    def test_integer_counter_drift_noted_not_failed(self):
        current = report_with(
            extra={"faulted_campaign": {"retries": 3, "runs_failed": 2}}
        )
        baseline = report_with(
            extra={"faulted_campaign": {"retries": 1, "runs_failed": 2}}
        )
        result = compare_reports(current, baseline)
        assert result.ok
        assert any("retries: 1 -> 3" in note for note in result.notes)
        assert not any("runs_failed" in note for note in result.notes)

    def test_float_metric_drift_not_noted(self):
        current = report_with(
            extra={"capped_sweep": {"speedup_vs_scalar": 15.0}}
        )
        baseline = report_with(
            extra={"capped_sweep": {"speedup_vs_scalar": 16.0}}
        )
        result = compare_reports(current, baseline)
        assert result.ok
        assert not any("speedup" in note for note in result.notes)

    def test_environment_mismatch_noted(self):
        env = environment_fingerprint()
        other = dict(env, numpy="0.0.1")
        result = compare_reports(report_with(env=other), report_with(env=env))
        assert result.ok  # informational only
        assert any("numpy" in note for note in result.notes)

    def test_new_campaign_noted(self):
        current = report_with()
        current["campaigns"]["extra_campaign"] = {"wall_seconds": 1.0}
        result = compare_reports(current, report_with())
        assert result.ok
        assert any("extra_campaign" in note for note in result.notes)

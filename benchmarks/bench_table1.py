"""Benchmark: regenerate Table I (platform summary).

Prints the fitted-vs-paper table and asserts every recovery claim; the
timed body is the rendering/claim evaluation over the shared campaign
fits, plus a dedicated single-platform end-to-end bench (campaign +
fit) to track the cost of the full pipeline.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import table1
from repro.microbench.campaign import fit_platform


def test_table1_reproduction(benchmark, fits):
    result = run_once(benchmark, table1.run, fits=fits)
    print()
    print(result.to_text())
    assert result.pass_fraction == 1.0
    benchmark.extra_info["claims"] = f"{result.n_passing}/{result.n_claims}"


def test_single_platform_campaign_and_fit(benchmark, settings):
    """End-to-end cost of one platform's full campaign + joint fit."""
    fitted = benchmark.pedantic(
        fit_platform,
        args=("gtx-titan", settings),
        rounds=1,
        iterations=1,
    )
    truth = fitted.truth
    fit = fitted.capped.params
    assert abs(fit.pi1 - truth.pi1) / truth.pi1 < 0.15
    benchmark.extra_info["runs"] = fitted.campaign.n_runs

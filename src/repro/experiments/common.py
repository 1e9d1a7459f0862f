"""Shared campaign execution for the experiment reproductions.

Table I and Fig. 4 both consume the full per-platform microbenchmark
campaigns; running them once and sharing the fits keeps the experiment
modules declarative.  ``CampaignSettings`` (declared in
:mod:`repro.microbench.suite`, re-exported here) scales campaign size
down for quick runs (benchmarks) and up for higher-fidelity
reproduction.

Every helper below fits a platform through
:func:`repro.microbench.campaign.fit_platform` on ``settings.seed``, so
a platform's fit depends only on the platform and the settings: one
platform or twelve, inline or over any number of pool workers, in any
platform order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..machine.platforms import platform
from ..microbench.campaign import CampaignRunner, CampaignSettings, fit_platform
from ..microbench.suite import FittedPlatform
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder

if TYPE_CHECKING:
    from ..machine.config import PlatformConfig
    from ..store.store import CampaignStore

__all__ = [
    "CampaignSettings",
    "fitted_platform_config",
    "run_all_fits",
]


def fitted_platform_config(
    platform_id: str,
    settings: CampaignSettings | None = None,
    *,
    store: "CampaignStore | None" = None,
    refresh: bool = False,
    recorder: TraceRecorder = NULL_RECORDER,
) -> "PlatformConfig":
    """The platform with its truth replaced by campaign-fitted theta-hat.

    This is the one shared "theta": "fitted" resolution path: the
    predict service (:mod:`repro.serve.theta`) and the fleet optimizer
    (:mod:`repro.fleet`) both call it, so a campaign store warmed by
    either of them replays the same campaign and fit entries
    bit-identically for both.
    """
    fitted = fit_platform(
        platform_id,
        settings or CampaignSettings(),
        recorder=recorder,
        store=store,
        refresh=refresh,
    )
    return replace(platform(platform_id), truth=fitted.fitted_params)


def run_all_fits(
    settings: CampaignSettings | None = None,
    platform_ids: tuple[str, ...] | None = None,
    *,
    max_workers: int | None = None,
) -> dict[str, FittedPlatform]:
    """Run and fit campaigns for every (or the given) platform.

    Runs through :class:`~repro.microbench.campaign.CampaignRunner`:
    ``max_workers=None`` or ``1`` inline in this process, more over a
    process pool, with the same fits either way.  Raises
    ``RuntimeError`` naming every loss if any platform's shard failed.
    """
    runner = CampaignRunner(platform_ids, settings, max_workers=max_workers or 1)
    fits = runner.run()
    report = runner.report
    assert report is not None
    if not report.ok:
        raise RuntimeError(report.describe_losses())
    return fits

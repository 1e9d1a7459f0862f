"""Shared campaign execution for the experiment reproductions.

Table I and Fig. 4 both consume the full per-platform microbenchmark
campaigns; running them once and sharing the fits keeps the experiment
modules declarative.  ``CampaignSettings`` scales campaign size down
for quick runs (benchmarks) and up for higher-fidelity reproduction.

Two execution paths produce the fits:

* the **sequential reference path** (``max_workers=None``): every
  platform's campaign runs in this process with ``settings.seed``
  directly -- bit-identical to what the repo has always produced, and
  the oracle the parallel path is checked against;
* the **parallel path** (``max_workers`` given): platforms are
  sharded across a process pool by
  :class:`repro.microbench.campaign.CampaignRunner`, each shard
  running on its own child seed spawned from ``settings.seed`` (so
  the result is independent of worker count, though the spawned seeds
  differ from the sequential path's shared seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..faults.plan import FaultPlan
from ..machine.platforms import PLATFORM_IDS, platform
from ..microbench.campaign import CampaignRunner
from ..microbench.intensity import balanced_intensities
from ..microbench.suite import FittedPlatform, fit_campaign, run_campaign
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder

if TYPE_CHECKING:
    from ..machine.config import PlatformConfig
    from ..store.store import CampaignStore

__all__ = [
    "CampaignSettings",
    "fitted_platform_config",
    "run_all_fits",
    "run_platform_fit",
]


@dataclass(frozen=True)
class CampaignSettings:
    """Knobs controlling campaign size and determinism."""

    seed: int = 2014  #: the paper's publication year, for flavour.
    replicates: int = 2
    points_per_octave: int = 3
    target_duration: float = 0.25  #: seconds per calibrated run.
    include_double: bool = True
    include_cache: bool = True
    include_chase: bool = True
    #: Seeded rig-fault model (None = clean rig; the all-zero plan is
    #: bit-for-bit identical to None).
    faults: FaultPlan | None = None
    max_retries: int = 2  #: per-run retry budget under faults.

    def scaled_down(self) -> "CampaignSettings":
        """Cheaper settings for smoke tests and benchmark harnesses."""
        return CampaignSettings(
            seed=self.seed,
            replicates=1,
            points_per_octave=2,
            target_duration=0.1,
            include_double=False,
            include_cache=self.include_cache,
            include_chase=self.include_chase,
            faults=self.faults,
            max_retries=self.max_retries,
        )


def run_platform_fit(
    platform_id: str, settings: CampaignSettings | None = None
) -> FittedPlatform:
    """Run and fit one platform's campaign."""
    settings = settings or CampaignSettings()
    config = platform(platform_id)
    grid = balanced_intensities(
        config, points_per_octave=settings.points_per_octave
    )
    campaign = run_campaign(
        config,
        seed=settings.seed,
        replicates=settings.replicates,
        intensities=grid,
        target_duration=settings.target_duration,
        include_double=settings.include_double,
        include_cache=settings.include_cache,
        include_chase=settings.include_chase,
        faults=settings.faults,
        max_retries=settings.max_retries,
    )
    rng = np.random.default_rng(settings.seed + 1)
    return fit_campaign(campaign, rng=rng)


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
    bit-identically for both.  The fit rng derivation matches
    :func:`run_platform_fit` exactly, so both fit the same theta-hat.
    """
    settings = settings or CampaignSettings()
    base = platform(platform_id)
    campaign = run_campaign(
        base,
        seed=settings.seed,
        replicates=settings.replicates,
        intensities=balanced_intensities(
            base, points_per_octave=settings.points_per_octave
        ),
        target_duration=settings.target_duration,
        include_double=settings.include_double,
        include_cache=settings.include_cache,
        include_chase=settings.include_chase,
        faults=settings.faults,
        max_retries=settings.max_retries,
        recorder=recorder,
        store=store,
        cache_refresh=refresh,
    )
    fit = fit_campaign(
        campaign,
        rng=np.random.default_rng(settings.seed + 1),
        recorder=recorder,
        store=store,
        cache_refresh=refresh,
    )
    return replace(base, truth=fit.fitted_params)


def run_all_fits(
    settings: CampaignSettings | None = None,
    platform_ids: tuple[str, ...] | None = None,
    *,
    max_workers: int | None = None,
) -> dict[str, FittedPlatform]:
    """Run and fit campaigns for every (or the given) platform.

    ``max_workers=None`` keeps the sequential reference path;
    any integer (including 1) routes through the parallel
    :class:`~repro.microbench.campaign.CampaignRunner` with spawned
    per-shard seeds -- reproducible for any worker count.
    """
    ids = platform_ids if platform_ids is not None else PLATFORM_IDS
    if max_workers is None:
        return {pid: run_platform_fit(pid, settings) for pid in ids}
    settings = settings or CampaignSettings()
    runner = CampaignRunner(
        ids,
        seed=settings.seed,
        max_workers=max_workers,
        replicates=settings.replicates,
        points_per_octave=settings.points_per_octave,
        target_duration=settings.target_duration,
        include_double=settings.include_double,
        include_cache=settings.include_cache,
        include_chase=settings.include_chase,
        faults=settings.faults,
        max_retries=settings.max_retries,
    )
    return runner.run()

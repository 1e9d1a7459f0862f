"""Parameter-source resolution for the predict service.

A query's ``theta`` field selects which machine parameters the engine
runs with:

``"truth"``
    The platform's ground-truth constants (Table I), straight from
    :func:`repro.machine.platforms.platform`.
``"fitted"``
    Theta-hat: the constants *recovered* from a microbenchmark
    campaign (:func:`~repro.microbench.campaign.fit_platform`), exactly
    the Section V-A procedure.  Serving from theta-hat answers "what would
    the model we actually measured predict?" -- the honest production
    configuration.

Fitted resolution is expensive (a full campaign on first touch), so
the resolver leans on the PR 7 content-addressed store when given one:
warm stores replay the campaign and fit bit-identically, and the
store's hit/miss/put counters are surfaced through the server's
``/stats`` endpoint.  Within a process, resolved configs and built
engines are memoised -- one engine per distinct
``(platform, theta, power_cap)`` triple -- so the steady-state request
path does two dict lookups, no physics.

All engines are built with ``rng=None``: the service is deterministic
by construction, which is what makes "batched responses are
bit-identical to the scalar oracle" a testable property rather than a
statistical one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..experiments.common import CampaignSettings, fitted_platform_config
from ..machine.config import PlatformConfig
from ..machine.engine import Engine
from ..machine.platforms import platform
from ..store.store import CampaignStore
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .protocol import PredictQuery

__all__ = ["ThetaResolver"]


class ThetaResolver:
    """Maps queries to memoised, ready-to-run engines.

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.store.CampaignStore`; fitted
        theta-hat campaigns and fits are looked up and published there
        (docs/CACHE.md), so a warm store makes first-touch fitted
        resolution fast and bit-identical across server restarts.
    settings:
        Campaign size/seed knobs for fitted resolution (default: the
        full :class:`~repro.experiments.common.CampaignSettings`).
    refresh:
        Skip store lookups (recompute and republish), mirroring
        ``archline campaign --refresh``.
    recorder:
        Telemetry recorder shared with the engines it builds, so
        ``engine_batch`` spans appear in the server's trace.
    """

    def __init__(
        self,
        *,
        store: CampaignStore | None = None,
        settings: CampaignSettings | None = None,
        refresh: bool = False,
        recorder: TraceRecorder | None = NULL_RECORDER,
    ) -> None:
        self.store = store
        self.settings = settings or CampaignSettings()
        self.refresh = refresh
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self._engines: dict[tuple[str, str, float | None], Engine] = {}
        self._fitted: dict[str, PlatformConfig] = {}
        #: Requests answered from the engine memo (no resolution work).
        self.memo_hits = 0
        #: Fitted-theta resolutions that ran the campaign+fit pipeline
        #: (through the store when one is attached).
        self.fitted_resolutions = 0

    def engine(self, query: PredictQuery) -> Engine:
        """The engine serving ``query`` (memoised per
        ``(platform, theta, power_cap)``)."""
        key = (query.platform_id, query.theta, query.power_cap)
        engine = self._engines.get(key)
        if engine is not None:
            self.memo_hits += 1
            return engine
        config = self._config(query.platform_id, query.theta)
        if query.power_cap is not None:
            config = replace(
                config, truth=replace(config.truth, delta_pi=query.power_cap)
            )
        engine = Engine(config, rng=None, recorder=self.recorder)
        self._engines[key] = engine
        return engine

    def _config(self, platform_id: str, theta: str) -> PlatformConfig:
        if theta == "truth":
            return platform(platform_id)
        fitted = self._fitted.get(platform_id)
        if fitted is not None:
            return fitted
        self.fitted_resolutions += 1
        # The shared resolution path (fit_platform, like every other
        # fit), so a store shared with `archline fleet` replays the
        # identical campaign and fit.
        config = fitted_platform_config(
            platform_id,
            self.settings,
            store=self.store,
            refresh=self.refresh,
            recorder=self.recorder,
        )
        self._fitted[platform_id] = config
        return config

    def stats(self) -> dict[str, Any]:
        """Counters for the server's ``/stats`` endpoint."""
        store_stats = None
        if self.store is not None:
            store_stats = {
                "hits": self.store.hits,
                "misses": self.store.misses,
                "stale": self.store.stale,
                "puts": self.store.puts,
            }
        return {
            "memo_hits": self.memo_hits,
            "engines": len(self._engines),
            "fitted_resolutions": self.fitted_resolutions,
            "fitted_platforms": sorted(self._fitted),
            "store": store_stats,
        }

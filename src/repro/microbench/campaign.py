"""One platform's campaign and fit, and a runner over many platforms.

:func:`fit_platform` is the only campaign-and-fit body: it measures one
platform's complete Section IV suite and fits its Section V-A model.
:class:`CampaignRunner` runs one :func:`run_shard` -- ``fit_platform``
plus the shard's cache and counters -- per platform, one after another
in this process, sharing nothing between shards:

* **Seeding.**  Every shard runs on the campaign seed itself
  (``settings.seed``), as :func:`fit_platform` does for one platform.
  A platform's observations and fit therefore depend only on
  ``(platform, settings)``: never on the order of the platform list or
  which other platforms share the campaign.
* **Calibration memoisation.**  Each shard's
  :class:`~repro.microbench.runner.BenchmarkRunner` memoises its
  noise-free calibration dry-runs keyed on kernel shape (the platform
  is implicit: one runner per shard), and the sweeps prime that cache
  through the vectorised :meth:`~repro.machine.engine.Engine.run_batch`
  path.
* **Counters.**  Every shard reports its run count, calibration
  hit/miss counters, wall time and fault/retry/quarantine totals; the
  aggregate lands in :attr:`CampaignRunner.report`.
* **Telemetry.**  With ``trace=True`` every shard records nested
  spans (shard -> campaign -> sweep -> run -> calibrate / engine /
  measure / validate, plus per-model fit spans) on a
  :class:`~repro.telemetry.recorder.TraceRecorder`; the spans come
  back inside each :class:`ShardReport` and can be exported as JSONL
  (:mod:`repro.telemetry.jsonl`) or rendered as a flame-style
  wall-time breakdown (:mod:`repro.telemetry.summary`).  The default
  no-op recorder leaves results bit-for-bit identical.
* **Incrementality.**  With ``cache_dir`` set every shard is keyed in
  a content-addressed store (:mod:`repro.store`, docs/CACHE.md):
  lookups before compute, publication after, hit/miss/stale counters
  in every :class:`ShardReport`.  Replayed shards are bit-identical to
  computed ones -- the cache changes *whether* a shard runs, never
  what it produces.  Every lookup and publication, of the runner's
  shard entries and of :func:`fit_platform`'s campaign and fit
  entries alike, goes through :func:`_through_store`.
* **Resilience.**  A shard that raises is quarantined -- recorded in
  the report with status ``"failed"`` and excluded from the returned
  fits -- instead of killing the campaign.  Per-run faults (from a
  seeded :class:`~repro.faults.plan.FaultPlan`) are retried and
  quarantined at cell granularity inside each shard by
  :class:`~repro.microbench.runner.BenchmarkRunner`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..machine.platforms import PLATFORM_IDS, platform
from ..store.fingerprint import campaign_key, fit_key, shard_key
from ..store.store import CampaignStore
from ..telemetry.jsonl import trace_bytes as _trace_bytes
from ..telemetry.recorder import NULL_RECORDER, SpanRecord, TraceRecorder
from .runner import BenchmarkRunner, QuarantinedCell
from .suite import CampaignSettings, FittedPlatform, fit_campaign, run_campaign

__all__ = [
    "CampaignSettings",
    "fit_platform",
    "ShardSpec",
    "ShardReport",
    "CampaignReport",
    "CampaignRunner",
    "run_shard",
]


_T = TypeVar("_T")


def _through_store(
    store: CampaignStore | None,
    kind: str,
    platform_name: str,
    key: Callable[[], str],
    compute: Callable[[], _T],
    *,
    refresh: bool,
    recorder: TraceRecorder = NULL_RECORDER,
) -> _T:
    """``compute()``, looked up in ``store`` first and published after
    (``key`` hashes the whole input, so it runs only with a store)."""
    if store is None:
        return compute()
    cell = key()
    if not refresh:
        with recorder.span("cache_lookup", platform=platform_name, key=cell[:12]):
            cached = store.get(cell, kind=kind)
        if cached is not None:
            return cached
    value = compute()
    with recorder.span("cache_store", platform=platform_name, key=cell[:12]):
        store.put(cell, value, kind=kind, platform=platform_name)
    return value


def fit_platform(
    platform_id: str,
    settings: CampaignSettings,
    *,
    runner: BenchmarkRunner | None = None,
    recorder: TraceRecorder = NULL_RECORDER,
    store: CampaignStore | None = None,
    refresh: bool = False,
) -> FittedPlatform:
    """Run and fit one platform's campaign -- the only body that does.

    Measures the suite under a ``campaign`` span, then fits it with the
    optimiser's generator seeded from ``settings.seed + 1``.  Pass
    ``runner`` (a :class:`~repro.microbench.runner.BenchmarkRunner`
    built from ``settings``) to read its counters afterwards, as
    :func:`run_shard` does.  ``store`` caches the campaign and the fit
    as content-keyed entries (docs/CACHE.md) and cannot be combined
    with ``runner``, whose counters would not advance on a hit;
    ``refresh`` skips their lookups but still publishes.
    """
    if store is not None and runner is not None:
        raise ValueError(
            "store cannot be combined with a preconstructed runner; "
            "cache at shard granularity instead (run_shard)"
        )
    config = platform(platform_id)
    with recorder.span("campaign"):
        campaign = _through_store(
            store,
            "campaign",
            config.name,
            lambda: campaign_key(config, settings),
            lambda: run_campaign(
                config, settings, runner=runner, recorder=recorder
            ),
            refresh=refresh,
            recorder=recorder,
        )
    rng = np.random.default_rng(settings.seed + 1)
    # fit_key reads the generator's entry state: key before the fit draws.
    return _through_store(
        store,
        "fit",
        config.name,
        lambda: fit_key(campaign, rng=rng),
        lambda: fit_campaign(campaign, rng=rng, recorder=recorder),
        refresh=refresh,
        recorder=recorder,
    )


@dataclass(frozen=True)
class ShardSpec:
    """One unit of campaign work: a platform and the campaign settings
    every shard shares."""

    platform_id: str
    settings: CampaignSettings
    trace: bool = False  #: record telemetry spans for this shard.
    #: Content-addressed store directory (docs/CACHE.md); ``None``
    #: disables caching.  Excluded (with ``cache_refresh`` and
    #: ``trace``) from the shard's cell key -- caching must never
    #: change what is computed, only whether it is recomputed.
    cache_dir: str | None = None
    cache_refresh: bool = False  #: recompute and republish even on a hit.


@dataclass(frozen=True)
class ShardReport:
    """Progress/timing/fault counters one shard reports.

    Fault-free shards leave every resilience field at its default; the
    counters satisfy ``runs_attempted == n_runs + runs_failed`` and
    ``runs_failed == retries + len(quarantined)`` (every failed attempt
    was either retried or retired its cell).
    """

    platform_id: str
    seed: int
    n_runs: int  #: observations accepted into the campaign.
    calibration_hits: int
    calibration_misses: int
    wall_seconds: float
    status: str = "ok"  #: "ok" | "failed".
    error: str = ""  #: failure message when status != "ok".
    runs_attempted: int = 0  #: engine executions, including retries.
    runs_failed: int = 0  #: attempts lost to a rig fault.
    retries: int = 0  #: failed attempts that were retried.
    rejected: int = 0  #: validation rejections (subset of runs_failed).
    runs_skipped: int = 0  #: runs short-circuited by a quarantined cell.
    samples_dropped: int = 0
    samples_corrupted: int = 0  #: dropped + NaN + saturated samples.
    quarantined: tuple[QuarantinedCell, ...] = ()
    #: Store counters (all zero when the shard ran uncached).  A shard
    #: is all-or-nothing, so ``cache_hits + cache_misses <= 1``;
    #: ``cache_stale`` counts corrupt/foreign entries evicted on the
    #: way (each also produced the miss that recomputed the cell).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stale: int = 0
    trace_bytes: int = 0  #: JSONL-encoded size of ``spans``, bytes.
    #: Telemetry spans this shard recorded, in timeline order (empty
    #: unless the spec set ``trace``).
    spans: tuple[SpanRecord, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def calibration_hit_rate(self) -> float:
        total = self.calibration_hits + self.calibration_misses
        return self.calibration_hits / total if total else 0.0


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate counters of one campaign.

    ``shards`` always holds one report per requested platform, in
    platform order -- including shards that failed, so the aggregate
    accounts for every attempted cell.
    """

    shards: tuple[ShardReport, ...]
    wall_seconds: float  #: end-to-end wall time of the whole campaign.

    @property
    def n_runs(self) -> int:
        return sum(shard.n_runs for shard in self.shards)

    @property
    def shard_seconds(self) -> float:
        """Summed per-shard wall time."""
        return sum(shard.wall_seconds for shard in self.shards)

    # -- resilience aggregates ----------------------------------------

    @property
    def ok(self) -> bool:
        """Whether every shard completed (cells may still be dropped)."""
        return all(shard.ok for shard in self.shards)

    @property
    def failed_shards(self) -> tuple[ShardReport, ...]:
        """Shards that failed (their platforms have no fit)."""
        return tuple(shard for shard in self.shards if not shard.ok)

    @property
    def quarantined_cells(self) -> tuple[QuarantinedCell, ...]:
        """Every retired (benchmark, kernel) cell across all shards."""
        return tuple(c for shard in self.shards for c in shard.quarantined)

    @property
    def runs_attempted(self) -> int:
        return sum(shard.runs_attempted for shard in self.shards)

    @property
    def runs_failed(self) -> int:
        return sum(shard.runs_failed for shard in self.shards)

    @property
    def retries(self) -> int:
        return sum(shard.retries for shard in self.shards)

    @property
    def rejected(self) -> int:
        return sum(shard.rejected for shard in self.shards)

    @property
    def runs_skipped(self) -> int:
        return sum(shard.runs_skipped for shard in self.shards)

    @property
    def samples_dropped(self) -> int:
        return sum(shard.samples_dropped for shard in self.shards)

    @property
    def samples_corrupted(self) -> int:
        return sum(shard.samples_corrupted for shard in self.shards)

    # -- store aggregates ---------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Shards replayed from the content-addressed store."""
        return sum(shard.cache_hits for shard in self.shards)

    @property
    def cache_misses(self) -> int:
        """Shards that consulted the store and had to compute."""
        return sum(shard.cache_misses for shard in self.shards)

    @property
    def cache_stale(self) -> int:
        """Corrupt/foreign store entries evicted during lookups."""
        return sum(shard.cache_stale for shard in self.shards)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # -- telemetry aggregates -----------------------------------------

    @property
    def trace_bytes(self) -> int:
        return sum(shard.trace_bytes for shard in self.shards)

    @property
    def traced(self) -> bool:
        """Whether any shard recorded telemetry spans."""
        return any(shard.spans for shard in self.shards)

    def describe_losses(self) -> str:
        """Human-readable account of everything that was dropped."""
        lines = []
        for shard in self.failed_shards:
            lines.append(
                f"shard {shard.platform_id}: {shard.status} ({shard.error})"
            )
        for cell in self.quarantined_cells:
            lines.append(f"quarantined {cell.describe()}")
        return "\n".join(lines) if lines else "nothing dropped"


def run_shard(spec: ShardSpec) -> tuple[FittedPlatform, ShardReport]:
    """Run one platform's full campaign and fit (the shard body).

    The shard computes through :func:`fit_platform` on the campaign
    settings, so its fit is the one every other path gives the same
    platform and settings.

    With ``spec.trace`` set the whole shard runs under a
    :class:`~repro.telemetry.recorder.TraceRecorder` -- a ``shard``
    root span containing the ``campaign`` (per-sweep, per-run,
    calibrate/engine/measure/validate) and ``fit`` subtrees -- and the
    resulting spans come back inside the :class:`ShardReport`.  The
    recorder never touches the random streams, so traced and untraced
    shards produce bit-identical fits.

    With ``spec.cache_dir`` set the shard is *incremental*: it caches
    its ``(fit, report)`` pair under its cell key
    (:func:`repro.store.fingerprint.shard_key`) through
    :func:`_through_store`, with ``cache_lookup`` and ``cache_store``
    spans, so a hit replays the pair bit-identically instead of
    computing.  Cached entries carry the original compute counters but
    never spans (telemetry is per-execution, not content), and
    ``wall_seconds`` always reports *this* invocation's time.
    """
    started = time.perf_counter()
    recorder = TraceRecorder() if spec.trace else NULL_RECORDER
    settings = spec.settings
    config = platform(spec.platform_id)
    store = None if spec.cache_dir is None else CampaignStore(spec.cache_dir)

    def compute() -> tuple[FittedPlatform, ShardReport]:
        runner = BenchmarkRunner(
            config,
            seed=settings.seed,
            target_duration=settings.target_duration,
            faults=settings.faults,
            max_retries=settings.max_retries,
            recorder=recorder,
        )
        with recorder.span("shard", platform=spec.platform_id):
            fitted = fit_platform(
                spec.platform_id, settings, runner=runner, recorder=recorder
            )
        fault_counters = runner.fault_counters
        # The publishable report: compute counters only.  Spans, trace
        # bytes and cache counters describe *this execution*, not the
        # shard's content, so they stay out of the store -- replay
        # attaches its own.
        return fitted, ShardReport(
            platform_id=spec.platform_id,
            seed=settings.seed,
            n_runs=fitted.campaign.n_runs,
            calibration_hits=runner.calibration_hits,
            calibration_misses=runner.calibration_misses,
            wall_seconds=time.perf_counter() - started,
            runs_attempted=runner.runs_attempted,
            runs_failed=runner.runs_failed,
            retries=runner.retries,
            rejected=runner.rejected,
            runs_skipped=runner.runs_skipped,
            samples_dropped=fault_counters.samples_dropped,
            samples_corrupted=fault_counters.samples_corrupted,
            quarantined=tuple(runner.quarantined),
        )

    fitted, report = _through_store(
        store,
        "shard",
        spec.platform_id,
        lambda: shard_key(config, spec),
        compute,
        refresh=spec.cache_refresh,
        recorder=recorder,
    )
    # With a store the shard either replayed (one hit) or computed (one
    # miss, whether its lookup missed, evicted a stale entry or was
    # skipped by a refresh).
    hits = 0 if store is None else store.hits
    spans = recorder.records()
    return fitted, replace(
        report,
        wall_seconds=time.perf_counter() - started,
        cache_hits=hits,
        cache_misses=0 if store is None else 1 - hits,
        cache_stale=0 if store is None else store.stale,
        trace_bytes=_trace_bytes(spec.platform_id, spans),
        spans=spans,
    )


def _failed_report(
    spec: ShardSpec, error: str, wall_seconds: float
) -> ShardReport:
    """The report of a shard that raised and produced no fit."""
    return ShardReport(
        platform_id=spec.platform_id,
        seed=spec.settings.seed,
        n_runs=0,
        calibration_hits=0,
        calibration_misses=0,
        wall_seconds=wall_seconds,
        status="failed",
        error=error,
    )


class CampaignRunner:
    """Runs per-platform campaign shards, one after another.

    Parameters
    ----------
    platform_ids:
        Platforms to shard over (default: all twelve).
    settings:
        The :class:`CampaignSettings` every shard runs on, seed
        included (default: ``CampaignSettings()``).  A ``None`` or
        all-zero fault plan leaves results bit-for-bit identical to the
        clean path.
    shard_fn:
        The shard execution body (default :func:`run_shard`).  A seam
        for tests and extensions.
    trace:
        Record telemetry spans in every shard (see
        :func:`run_shard`); the spans come back inside each
        :class:`ShardReport` and can be exported with
        :func:`repro.telemetry.jsonl.write_trace` or rendered with
        :func:`repro.telemetry.summary.render_summary`.  Off by
        default -- the no-op recorder keeps results bit-identical.
    cache_dir:
        Content-addressed store directory (docs/CACHE.md).  Each shard
        consults the store before computing and publishes after, so a
        re-run with an unchanged configuration replays every shard
        bit-identically from disk; editing one platform recomputes only
        that platform's shard.  ``None`` (default) disables caching.
    cache_refresh:
        Skip store lookups but still publish: every shard recomputes
        and overwrites its entry.  Requires ``cache_dir``.
    """

    def __init__(
        self,
        platform_ids: Sequence[str] | None = None,
        settings: CampaignSettings | None = None,
        *,
        shard_fn: Callable[[ShardSpec], tuple[FittedPlatform, ShardReport]] = run_shard,
        trace: bool = False,
        cache_dir: str | os.PathLike[str] | None = None,
        cache_refresh: bool = False,
    ) -> None:
        self.platform_ids = tuple(
            PLATFORM_IDS if platform_ids is None else platform_ids
        )
        if not self.platform_ids:
            raise ValueError("need at least one platform")
        unknown = [p for p in self.platform_ids if p not in PLATFORM_IDS]
        if unknown:
            raise ValueError(
                f"unknown platform(s) {', '.join(unknown)}; "
                f"choose from {', '.join(PLATFORM_IDS)}"
            )
        if len(set(self.platform_ids)) != len(self.platform_ids):
            # Results are keyed by platform id: duplicates would
            # silently run twice and collapse into one entry.
            raise ValueError("duplicate platform ids")
        if cache_refresh and cache_dir is None:
            raise ValueError("cache_refresh requires cache_dir")
        self.settings = settings or CampaignSettings()
        self.shard_fn = shard_fn
        self.trace = trace
        self.cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self.cache_refresh = cache_refresh
        self.report: CampaignReport | None = None
        #: Errors raised by the user ``progress`` callback during the
        #: last :meth:`run` (swallowed so they cannot stop the
        #: campaign), as ``"platform: ExcType: message"`` strings.
        self.progress_errors: tuple[str, ...] = ()

    def shard_specs(self) -> list[ShardSpec]:
        """The shard list, in platform order, all on the one settings."""
        return [
            ShardSpec(
                pid,
                self.settings,
                self.trace,
                self.cache_dir,
                self.cache_refresh,
            )
            for pid in self.platform_ids
        ]

    def run(
        self,
        progress: Callable[[ShardReport], None] | None = None,
    ) -> dict[str, FittedPlatform]:
        """Run every shard in platform order and return fits keyed by
        platform id.

        ``progress`` (if given) is called with each shard's
        :class:`ShardReport` as it completes.  The aggregate
        :class:`CampaignReport` is stored on :attr:`report`.

        The campaign *never* dies with a shard: a shard that raises is
        recorded in the report with status ``"failed"`` and its
        platform is simply absent from the returned fits -- graceful
        degradation with every loss named in
        :meth:`CampaignReport.describe_losses`.  The same isolation
        covers the ``progress`` callback itself: an exception it raises
        is caught and recorded on :attr:`progress_errors`, and the
        campaign carries on.
        """
        started = time.perf_counter()
        fits: dict[str, FittedPlatform] = {}
        shards: list[ShardReport] = []
        progress_errors: list[str] = []
        for spec in self.shard_specs():
            shard_started = time.perf_counter()
            try:
                fitted, shard_report = self.shard_fn(spec)
            except Exception as err:  # shard isolation: one platform down
                shard_report = _failed_report(
                    spec,
                    f"{type(err).__name__}: {err}",
                    time.perf_counter() - shard_started,
                )
            else:
                fits[spec.platform_id] = fitted
            shards.append(shard_report)
            if progress is not None:
                try:
                    progress(shard_report)
                except Exception as err:
                    progress_errors.append(
                        f"{spec.platform_id}: {type(err).__name__}: {err}"
                    )
        self.progress_errors = tuple(progress_errors)
        self.report = CampaignReport(
            shards=tuple(shards),
            wall_seconds=time.perf_counter() - started,
        )
        return fits

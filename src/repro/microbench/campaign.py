"""One platform's campaign and fit, and a process pool to shard them.

:func:`fit_platform` is the only campaign-and-fit body: it measures one
platform's complete Section IV suite and fits its Section V-A model.
A full reproduction campaign is embarrassingly parallel across
platforms, so :class:`CampaignRunner` runs one :func:`run_shard` --
``fit_platform`` plus the shard's cache and counters -- per platform,
inline or over a ``concurrent.futures`` process pool, sharing nothing
between shards:

* **Seeding.**  Every shard runs on the campaign seed itself
  (``settings.seed``), as :func:`fit_platform` does for one platform.
  A platform's observations and fit therefore depend only on
  ``(platform, settings)``: never on the worker count, the order of
  the platform list, or which other platforms share the campaign.
* **Calibration memoisation.**  Each shard's
  :class:`~repro.microbench.runner.BenchmarkRunner` memoises its
  noise-free calibration dry-runs keyed on kernel shape (the platform
  is implicit: one runner per shard), and the sweeps prime that cache
  through the vectorised :meth:`~repro.machine.engine.Engine.run_batch`
  path.
* **Counters.**  Every shard reports its run count, calibration
  hit/miss counters, wall time and fault/retry/quarantine totals; the
  aggregate lands in
  :attr:`CampaignRunner.report`, whose ``workers`` field records the
  *actual* pool width so ``parallel_efficiency`` is normalised
  honestly.
* **Telemetry.**  With ``trace=True`` every shard records nested
  spans (shard -> campaign -> sweep -> run -> calibrate / engine /
  measure / validate, plus per-model fit spans) on a
  :class:`~repro.telemetry.recorder.TraceRecorder`; the spans ship
  back inside each :class:`ShardReport` and can be exported as JSONL
  (:mod:`repro.telemetry.jsonl`) or rendered as a flame-style
  wall-time breakdown (:mod:`repro.telemetry.summary`).  The default
  no-op recorder leaves results bit-for-bit identical.
* **Incrementality.**  With ``cache_dir`` set every shard is keyed in
  a content-addressed store (:mod:`repro.store`, docs/CACHE.md):
  lookups before compute, publication after, hit/miss/stale counters
  in every :class:`ShardReport`.  Replayed shards are bit-identical to
  computed ones -- the cache changes *whether* a shard runs, never
  what it produces.  Outside the pool only :func:`fit_platform`
  caches, as separate campaign and fit entries.
* **Resilience.**  A shard that raises, crashes its worker process or
  misses the ``shard_timeout`` deadline is quarantined -- recorded in
  the report with a named status and excluded from the returned fits
  -- instead of killing the campaign.  Per-run faults (from a seeded
  :class:`~repro.faults.plan.FaultPlan`) are retried and quarantined
  at cell granularity inside each shard by
  :class:`~repro.microbench.runner.BenchmarkRunner`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..machine.platforms import PLATFORM_IDS, platform
from ..store.fingerprint import campaign_key, fit_key, shard_key
from ..store.store import CampaignStore
from ..telemetry.jsonl import trace_bytes as _trace_bytes
from ..telemetry.recorder import (
    NULL_RECORDER,
    SpanRecord,
    SpanTable,
    TraceRecorder,
)
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
    """One unit of parallel campaign work: a platform and the campaign
    settings every shard shares."""

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
    status: str = "ok"  #: "ok" | "failed" | "timeout".
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
    #: Telemetry spans this shard recorded (empty unless the spec set
    #: ``trace``).  Shipped across the pool boundary as a columnar
    #: :class:`~repro.telemetry.recorder.SpanTable` (a fraction of the
    #: pickle bytes of per-span records); iterating yields
    #: :class:`~repro.telemetry.recorder.SpanRecord` rows either way.
    spans: SpanTable | tuple[SpanRecord, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def calibration_hit_rate(self) -> float:
        total = self.calibration_hits + self.calibration_misses
        return self.calibration_hits / total if total else 0.0


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate counters of one parallel campaign.

    ``shards`` always holds one report per requested platform, in
    platform order -- including shards that failed or timed out, so the
    aggregate accounts for every attempted cell.
    """

    shards: tuple[ShardReport, ...]
    #: The *actual* pool width: ``min(max_workers, len(shards))`` for a
    #: pool run, 1 inline -- not the requested ``max_workers``, which
    #: would understate :attr:`parallel_efficiency` whenever fewer
    #: shards than workers exist.
    workers: int
    wall_seconds: float  #: end-to-end wall time of the whole campaign.

    @property
    def n_runs(self) -> int:
        return sum(shard.n_runs for shard in self.shards)

    @property
    def shard_seconds(self) -> float:
        """Summed per-shard wall time (the sequential-equivalent cost)."""
        return sum(shard.wall_seconds for shard in self.shards)

    @property
    def parallel_efficiency(self) -> float:
        """``shard_seconds / (workers * wall_seconds)``, 1.0 = ideal."""
        if self.wall_seconds <= 0.0 or self.workers <= 0:
            return 0.0
        return self.shard_seconds / (self.workers * self.wall_seconds)

    # -- resilience aggregates ----------------------------------------

    @property
    def ok(self) -> bool:
        """Whether every shard completed (cells may still be dropped)."""
        return all(shard.ok for shard in self.shards)

    @property
    def failed_shards(self) -> tuple[ShardReport, ...]:
        """Shards that failed or timed out (their platforms have no fit)."""
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
        """Whether any shard shipped telemetry spans."""
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
    """Run one platform's full campaign and fit (pool worker body).

    Module-level so the process pool can pickle it; also callable
    inline for ``max_workers=1``, which must produce bit-identical
    results.  The shard computes through :func:`fit_platform` on the
    campaign settings, so its fit is the one every other path gives
    the same platform and settings.

    With ``spec.trace`` set the whole shard runs under a
    :class:`~repro.telemetry.recorder.TraceRecorder` -- a ``shard``
    root span containing the ``campaign`` (per-sweep, per-run,
    calibrate/engine/measure/validate) and ``fit`` subtrees -- and the
    resulting spans travel back inside the :class:`ShardReport`.  The
    recorder never touches the random streams, so traced and untraced
    shards produce bit-identical fits.

    With ``spec.cache_dir`` set the shard is *incremental*: its cell
    key (:func:`repro.store.fingerprint.shard_key`) is looked up in the
    content-addressed store first -- recorded as a ``cache_lookup``
    span -- and a hit replays the cached ``(fit, report)`` pair
    bit-identically instead of computing; a miss computes as usual and
    publishes the result under a ``cache_store`` span.  Cached entries
    carry the original compute counters but never spans (telemetry is
    per-execution, not content), and ``wall_seconds`` always reports
    *this* invocation's time.
    """
    started = time.perf_counter()
    recorder = TraceRecorder() if spec.trace else NULL_RECORDER
    settings = spec.settings
    config = platform(spec.platform_id)
    store: CampaignStore | None = None
    key = ""
    if spec.cache_dir is not None:
        store = CampaignStore(spec.cache_dir)
        key = shard_key(config, spec)
        if not spec.cache_refresh:
            with recorder.span(
                "cache_lookup", platform=spec.platform_id, key=key[:12]
            ):
                cached = store.get(key, kind="shard")
            if cached is not None:
                fitted, cached_report = cached
                spans = recorder.records()
                report = replace(
                    cached_report,
                    wall_seconds=time.perf_counter() - started,
                    cache_hits=1,
                    cache_stale=store.stale,
                    trace_bytes=_trace_bytes(spec.platform_id, spans),
                    spans=SpanTable.from_records(spans) if spans else (),
                )
                return fitted, report
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
    # shard's content, so they stay out of the store -- replay attaches
    # its own.
    base = ShardReport(
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
    if store is not None:
        with recorder.span(
            "cache_store", platform=spec.platform_id, key=key[:12]
        ):
            store.put(
                key, (fitted, base), kind="shard", platform=spec.platform_id
            )
    spans = recorder.records()
    shipped = SpanTable.from_records(spans) if spans else ()
    report = replace(
        base,
        wall_seconds=time.perf_counter() - started,
        cache_misses=1 if store is not None else 0,
        cache_stale=store.stale if store is not None else 0,
        trace_bytes=_trace_bytes(spec.platform_id, spans),
        spans=shipped,
    )
    return fitted, report


def _failed_report(
    spec: ShardSpec, status: str, error: str, wall_seconds: float
) -> ShardReport:
    """The report of a shard that produced no fit."""
    return ShardReport(
        platform_id=spec.platform_id,
        seed=spec.settings.seed,
        n_runs=0,
        calibration_hits=0,
        calibration_misses=0,
        wall_seconds=wall_seconds,
        status=status,
        error=error,
    )


class CampaignRunner:
    """Runs per-platform campaign shards, optionally in parallel.

    Parameters
    ----------
    platform_ids:
        Platforms to shard over (default: all twelve).
    settings:
        The :class:`CampaignSettings` every shard runs on, seed
        included (default: ``CampaignSettings()``).  A ``None`` or
        all-zero fault plan leaves results bit-for-bit identical to the
        clean path.
    max_workers:
        Process-pool width; ``1`` runs the shards inline in this
        process, with results identical to any parallel run.  Default:
        one worker per shard, capped at the machine's CPU count.
    shard_timeout:
        Deadline in seconds each shard must meet, measured from
        campaign start.  Shards still unfinished at the deadline are
        quarantined (status ``"timeout"``) and excluded from the
        returned fits; under a pool the stragglers are abandoned
        without waiting.  Inline (``max_workers=1``) a running shard
        cannot be interrupted, so the deadline is enforced between
        shards.  ``None`` disables it.
    shard_fn:
        The shard execution body (default :func:`run_shard`).  A seam
        for tests and extensions; must be a picklable module-level
        callable when a process pool is used.
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
        max_workers: int | None = None,
        shard_timeout: float | None = None,
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
            raise ValueError(f"unknown platform ids: {unknown}")
        if len(set(self.platform_ids)) != len(self.platform_ids):
            # Results are keyed by platform id: duplicates would
            # silently run twice and collapse into one entry.
            raise ValueError("duplicate platform ids")
        if max_workers is None:
            max_workers = min(len(self.platform_ids), os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if shard_timeout is not None and not shard_timeout > 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if cache_refresh and cache_dir is None:
            raise ValueError("cache_refresh requires cache_dir")
        self.settings = settings or CampaignSettings()
        self.max_workers = max_workers
        self.shard_timeout = shard_timeout
        self.shard_fn = shard_fn
        self.trace = trace
        self.cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self.cache_refresh = cache_refresh
        self.report: CampaignReport | None = None
        #: Errors raised by the user ``progress`` callback during the
        #: last :meth:`run` (swallowed so they cannot abandon the
        #: pool), as ``"platform: ExcType: message"`` strings.
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

    def _run_inline(
        self,
        specs: list[ShardSpec],
        started: float,
        emit: Callable[[str, FittedPlatform | None, ShardReport], None],
    ) -> None:
        deadline = (
            None if self.shard_timeout is None else started + self.shard_timeout
        )
        for spec in specs:
            if deadline is not None and time.perf_counter() >= deadline:
                emit(
                    spec.platform_id,
                    None,
                    _failed_report(
                        spec,
                        "timeout",
                        f"not started before the {self.shard_timeout:.1f}s "
                        f"deadline",
                        0.0,
                    ),
                )
                continue
            shard_started = time.perf_counter()
            try:
                fitted, shard_report = self.shard_fn(spec)
            except Exception as err:  # shard isolation: one platform down
                emit(
                    spec.platform_id,
                    None,
                    _failed_report(
                        spec,
                        "failed",
                        f"{type(err).__name__}: {err}",
                        time.perf_counter() - shard_started,
                    ),
                )
            else:
                emit(spec.platform_id, fitted, shard_report)

    def _run_pool(
        self,
        specs: list[ShardSpec],
        emit: Callable[[str, FittedPlatform | None, ShardReport], None],
        workers: int,
    ) -> None:
        pool = ProcessPoolExecutor(max_workers=workers)
        # Shards abandoned mid-run cannot report their own wall time,
        # so they are accounted from submission: the time a shard
        # burned before the campaign gave up on it.  Shards whose
        # future cancels cleanly at the deadline never ran at all and
        # are charged 0.0 -- charging them the queue time would
        # inflate ``CampaignReport.shard_seconds`` (and with it
        # ``parallel_efficiency``) with work nobody performed.
        submitted = time.perf_counter()
        futures = {pool.submit(self.shard_fn, spec): spec for spec in specs}
        done: set[str] = set()
        timed_out = False
        try:
            for future in as_completed(futures, timeout=self.shard_timeout):
                spec = futures[future]
                try:
                    fitted, shard_report = future.result()
                except Exception as err:  # worker crashed or shard raised
                    fitted = None
                    shard_report = _failed_report(
                        spec,
                        "failed",
                        f"{type(err).__name__}: {err}",
                        time.perf_counter() - submitted,
                    )
                done.add(spec.platform_id)
                emit(spec.platform_id, fitted, shard_report)
        # On 3.10, as_completed raises concurrent.futures.TimeoutError,
        # which only became an alias of the builtin in 3.11.
        except (TimeoutError, FuturesTimeoutError):
            # Deadline hit: quarantine every unfinished shard.  Queued
            # futures are cancelled; ones already running on a worker
            # are abandoned (shutdown below does not wait for them).
            # Each gets the elapsed-at-deadline time, not the nominal
            # ``shard_timeout``: the deadline may fire late, and the
            # report should account for time actually burned.
            timed_out = True
            elapsed = time.perf_counter() - submitted
            for future, spec in futures.items():
                if spec.platform_id in done:
                    continue
                # A successful cancel() means the shard was still
                # queued: it never ran, so it burned no shard time and
                # is charged 0.0.  Only shards already running on a
                # worker (cancel() fails) are charged the elapsed time
                # they actually consumed before being abandoned.
                cancelled = future.cancel()
                if cancelled:
                    error = (
                        f"not started before the {self.shard_timeout:.1f}s "
                        f"deadline"
                    )
                else:
                    error = (
                        f"unfinished at the {self.shard_timeout:.1f}s "
                        f"deadline"
                    )
                emit(
                    spec.platform_id,
                    None,
                    _failed_report(
                        spec,
                        "timeout",
                        error,
                        0.0 if cancelled else elapsed,
                    ),
                )
        finally:
            # shutdown(wait=False) leaves workers mid-shard alive, and
            # the executor's atexit hook would join them -- blocking
            # interpreter exit long past the deadline.  Their futures
            # are already quarantined above, so kill the stragglers
            # outright.  Snapshot before shutdown(): it nulls
            # ``_processes`` even with ``wait=False``.
            stragglers = (
                list((getattr(pool, "_processes", None) or {}).values())
                if timed_out
                else []
            )
            pool.shutdown(wait=not timed_out, cancel_futures=True)
            for proc in stragglers:
                proc.terminate()

    def run(
        self,
        progress: Callable[[ShardReport], None] | None = None,
    ) -> dict[str, FittedPlatform]:
        """Run every shard and return fits keyed by platform id.

        ``progress`` (if given) is called with each shard's
        :class:`ShardReport` as it completes -- out of order under a
        pool; the returned dict is always in platform order.  The
        aggregate :class:`CampaignReport` is stored on :attr:`report`.

        The campaign *never* dies with a shard: a shard that raises,
        crashes its worker, or misses the deadline is recorded in the
        report with status ``"failed"``/``"timeout"`` and its platform
        is simply absent from the returned fits -- graceful degradation
        with every loss named in :meth:`CampaignReport.describe_losses`.
        The same isolation covers the ``progress`` callback itself: an
        exception it raises mid-campaign would otherwise abandon live
        pool workers and leave :attr:`report` unset, so it is caught,
        recorded on :attr:`progress_errors`, and the campaign carries
        on.
        """
        specs = self.shard_specs()
        inline = self.max_workers == 1 or len(specs) == 1
        # The *actual* pool width -- what parallel_efficiency must be
        # normalised by.  A pool never grows wider than the shard list,
        # and the inline path is one worker regardless of max_workers.
        workers = 1 if inline else min(self.max_workers, len(specs))
        started = time.perf_counter()
        outcomes: dict[str, tuple[FittedPlatform | None, ShardReport]] = {}
        progress_errors: list[str] = []
        self.progress_errors = ()

        def emit(
            pid: str, fitted: FittedPlatform | None, shard_report: ShardReport
        ) -> None:
            outcomes[pid] = (fitted, shard_report)
            if progress is not None:
                try:
                    progress(shard_report)
                except Exception as err:
                    progress_errors.append(
                        f"{pid}: {type(err).__name__}: {err}"
                    )

        if inline:
            self._run_inline(specs, started, emit)
        else:
            self._run_pool(specs, emit, workers)
        self.progress_errors = tuple(progress_errors)
        self.report = CampaignReport(
            shards=tuple(
                outcomes[pid][1] for pid in self.platform_ids
            ),
            workers=workers,
            wall_seconds=time.perf_counter() - started,
        )
        return {
            pid: outcome[0]
            for pid in self.platform_ids
            if (outcome := outcomes[pid])[0] is not None
        }

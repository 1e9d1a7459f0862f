"""The fixed campaign suite behind ``BENCH_campaign.json``.

Five campaigns, chosen so each exercises one distinct execution path
whose speed the repo has promised to keep:

``uncapped_sweep``
    A light 1000-point intensity sweep through ``Engine.run_batch`` on
    gtx-titan: pure vectorised physics, nothing throttles.  Gates the
    elementwise batch path.
``capped_sweep``
    A heavy 1000-point sweep on apu-gpu where roughly half the grid
    exceeds the power cap: the lockstep batch governor is the hot
    path.  Also times the per-kernel scalar loop once and reports the
    speedup -- the ratio the vectorised governor must defend.
``faulted_campaign``
    A two-platform inline campaign under a seeded fault plan: the
    resilient path (retries, rejections, quarantine) with its
    counters.
``pool_campaign``
    A four-platform campaign through the process pool, reporting
    ``parallel_efficiency`` and the shard counters that ride back over
    the pickle boundary.
``cached_campaign``
    The same four platforms run cold into a fresh content-addressed
    store and then warm from it (docs/CACHE.md).  ``wall_seconds`` is
    the *warm* replay -- the time an incremental re-run costs -- and
    the metrics record the cold time, the warm speedup, the hit/miss
    counters and a ``fits_identical`` bit asserting the replay matched
    the compute bit-for-bit.
``fleet_small``
    The fleet/procurement optimizer (docs/FLEET.md) end to end: a
    four-bin workload evaluated over all twelve Table I platforms and
    solved under binding power and cost budgets via the scalable
    LP + greedy + polish path.  Gates the solver's wall time and
    records the state count and an ``optimal`` bit (the polish must
    keep finishing inside its cap on this instance).

Each function returns a flat ``{metric: number}`` dict (the report
schema validates every value is a finite number) and takes ``quick``
to shrink the workload for smoke tests -- the committed baseline is
always measured at full size.

Wall times here are measured as the *minimum* over a few repetitions
for the sweeps (robust to scheduler noise; the campaigns run once,
like the real workload they stand for).
"""

from __future__ import annotations

import pickle
import tempfile
import time
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from ..faults.plan import FaultPlan
from ..machine.engine import Engine
from ..machine.platforms import platform
from ..microbench.campaign import CampaignRunner, CampaignSettings
from ..microbench.kernels import intensity_kernel

__all__ = [
    "SUITE",
    "uncapped_sweep",
    "capped_sweep",
    "faulted_campaign",
    "pool_campaign",
    "cached_campaign",
    "fleet_small",
]

_SWEEP_POINTS = 1000
_SWEEP_REPS = 3


def _best_of(fn: Callable[[], object], reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def uncapped_sweep(*, seed: int = 2014, quick: bool = False) -> dict:
    """Vectorised batch sweep with no governor intervention."""
    del seed  # noise-free: the sweep is deterministic
    n = 100 if quick else _SWEEP_POINTS
    config = platform("gtx-titan")
    engine = Engine(config)
    # gtx-titan's demand first crosses its cap near intensity ~14;
    # stop at 8 so the whole grid stays on the pure vectorised path.
    grid = np.geomspace(1.0 / 8.0, 8.0, n)
    kernels = [intensity_kernel(config, float(i)) for i in grid]
    engine.run_batch(kernels[:2])  # warm
    wall = _best_of(lambda: engine.run_batch(kernels), _SWEEP_REPS)
    result = engine.run_batch(kernels)
    return {
        "wall_seconds": wall,
        "n_runs": n,
        "runs_per_second": n / wall,
        "n_throttled": result.n_throttled,
    }


def capped_sweep(*, seed: int = 2014, quick: bool = False) -> dict:
    """Heavy sweep where the lockstep batch governor is the hot path.

    Also times the per-kernel scalar reference once (it *is* the
    oracle the batch path is measured against) and reports the
    speedup, so the trajectory records the vectorised governor's
    advantage PR over PR.
    """
    del seed
    n = 100 if quick else _SWEEP_POINTS
    config = platform("apu-gpu")
    engine = Engine(config)
    grid = np.geomspace(0.05, 200.0, n)
    kernels = [
        intensity_kernel(config, float(i), base_bytes=2e9) for i in grid
    ]
    engine.run(kernels[0])
    engine.run_batch(kernels[:2])  # warm both paths
    wall = _best_of(lambda: engine.run_batch(kernels), _SWEEP_REPS)
    started = time.perf_counter()
    for kernel in kernels:
        engine.run(kernel)
    scalar_wall = time.perf_counter() - started
    result = engine.run_batch(kernels)
    return {
        "wall_seconds": wall,
        "n_runs": n,
        "runs_per_second": n / wall,
        "n_throttled": result.n_throttled,
        "scalar_seconds": scalar_wall,
        "speedup_vs_scalar": scalar_wall / wall,
    }


def _campaign_metrics(runner: CampaignRunner) -> dict:
    report = runner.report
    assert report is not None
    wall = report.wall_seconds
    return {
        "wall_seconds": wall,
        "n_runs": report.n_runs,
        "runs_per_second": report.n_runs / wall if wall > 0 else 0.0,
        "workers": report.workers,
        "parallel_efficiency": report.parallel_efficiency,
        "shard_seconds": report.shard_seconds,
        "runs_attempted": report.runs_attempted,
        "runs_failed": report.runs_failed,
        "retries": report.retries,
        "rejected": report.rejected,
        "runs_skipped": report.runs_skipped,
        "quarantined_cells": len(report.quarantined_cells),
        "failed_shards": len(report.failed_shards),
    }


def _settings(seed: int, quick: bool, **overrides: Any) -> CampaignSettings:
    """The suite's scaled-down campaign, one point per octave if quick."""
    return replace(
        CampaignSettings(seed=seed).scaled_down(),
        points_per_octave=1 if quick else 2,
        **overrides,
    )


def faulted_campaign(*, seed: int = 2014, quick: bool = False) -> dict:
    """Resilient inline campaign under a seeded fault plan."""
    plan = FaultPlan(
        sample_dropout=0.02,
        run_failure_rate=0.05,
        seed=7,
    )
    runner = CampaignRunner(
        ("gtx-titan", "nuc-gpu"),
        _settings(seed, quick, faults=plan),
        max_workers=1,
    )
    fits = runner.run()
    metrics = _campaign_metrics(runner)
    metrics["fitted_platforms"] = len(fits)
    return metrics


def pool_campaign(*, seed: int = 2014, quick: bool = False) -> dict:
    """Four platforms sharded over a process pool."""
    runner = CampaignRunner(
        ("gtx-titan", "xeon-phi", "arndale-gpu", "nuc-gpu"),
        _settings(seed, quick),
        max_workers=4,
    )
    fits = runner.run()
    metrics = _campaign_metrics(runner)
    metrics["fitted_platforms"] = len(fits)
    return metrics


def _fits_identical(a: dict, b: dict) -> bool:
    """Whether two fit dicts match bit-for-bit in content.

    Compared value-wise (campaign observations by dataclass equality --
    exact float comparison -- and fitted parameters by pickle bytes)
    rather than as whole-object pickles, whose bytes also encode
    internal reference sharing that replay legitimately reshapes.
    """
    if set(a) != set(b):
        return False
    for pid in a:
        fa, fb = a[pid], b[pid]
        if fa.campaign != fb.campaign:
            return False
        if pickle.dumps(fa.fitted_params) != pickle.dumps(fb.fitted_params):
            return False
        if fa.uncapped.params != fb.uncapped.params:
            return False
    return True


def cached_campaign(*, seed: int = 2014, quick: bool = False) -> dict:
    """Cold-then-warm campaign through the content-addressed store.

    ``wall_seconds`` (the gated metric) is the **warm** run: the cost
    of an incremental re-run when nothing changed.  Runs inline --
    process-pool startup would swamp a replay that does no compute.
    """

    def runner_for(cache_dir: str) -> CampaignRunner:
        return CampaignRunner(
            ("gtx-titan", "xeon-phi", "arndale-gpu", "nuc-gpu"),
            _settings(seed, quick),
            max_workers=1,
            cache_dir=cache_dir,
        )

    with tempfile.TemporaryDirectory(prefix="archline-cache-") as cache_dir:
        cold_runner = runner_for(cache_dir)
        cold_fits = cold_runner.run()
        cold_report = cold_runner.report
        assert cold_report is not None
        warm_runner = runner_for(cache_dir)
        warm_fits = warm_runner.run()
        warm_report = warm_runner.report
        assert warm_report is not None
    wall = warm_report.wall_seconds
    return {
        "wall_seconds": wall,
        "n_runs": warm_report.n_runs,
        "runs_per_second": warm_report.n_runs / wall if wall > 0 else 0.0,
        "cold_seconds": cold_report.wall_seconds,
        "warm_speedup": cold_report.wall_seconds / wall if wall > 0 else 0.0,
        "cache_hits": warm_report.cache_hits,
        "cache_misses": warm_report.cache_misses,
        "cache_stale": warm_report.cache_stale,
        "cold_misses": cold_report.cache_misses,
        "fits_identical": int(_fits_identical(cold_fits, warm_fits)),
    }


def fleet_small(*, seed: int = 2014, quick: bool = False) -> dict:
    """The procurement optimizer end to end (docs/FLEET.md).

    Deterministic (theta is Table I truth), so the wall time is pure
    evaluate + LP + greedy + polish; measured best-of like the sweeps.
    """
    del seed  # truth-theta: nothing stochastic to seed
    from ..fleet import FleetInstance, WorkloadBin, WorkloadSpec
    from ..fleet import default_offer, evaluate_fleet
    from ..fleet import solve as fleet_solve
    from ..machine.platforms import PLATFORM_IDS

    workload = WorkloadSpec(
        bins=(
            WorkloadBin(jobs=400, algorithm="matmul", n=8192),
            WorkloadBin(jobs=1200, algorithm="fft", n=2**24),
            WorkloadBin(jobs=900, algorithm="stencil", n=1e8),
            WorkloadBin(jobs=600, algorithm="spmv", n=1e7),
        ),
        horizon=3600.0,
    )
    platform_ids = PLATFORM_IDS[:4] if quick else PLATFORM_IDS
    configs = {pid: platform(pid) for pid in platform_ids}
    offers = {pid: default_offer(pid) for pid in platform_ids}

    def solve_once():
        matrix = evaluate_fleet(workload, configs)
        instance = FleetInstance.from_matrix(
            matrix,
            workload,
            offers,
            power_budget=2000.0,
            cost_budget=50000.0,
        )
        return fleet_solve(instance), instance

    solve_once()  # warm
    wall = _best_of(solve_once, _SWEEP_REPS)
    solution, instance = solve_once()
    return {
        "wall_seconds": wall,
        "n_pairs": len(instance.pair_bin),
        "states_explored": solution.states_explored,
        "total_nodes": solution.total_nodes,
        "optimal": int(solution.status == "optimal"),
    }


#: The suite in run order; keys match ``schema.SUITE_CAMPAIGNS``.
SUITE: dict[str, Callable[..., dict]] = {
    "uncapped_sweep": uncapped_sweep,
    "capped_sweep": capped_sweep,
    "faulted_campaign": faulted_campaign,
    "pool_campaign": pool_campaign,
    "cached_campaign": cached_campaign,
    "fleet_small": fleet_small,
}

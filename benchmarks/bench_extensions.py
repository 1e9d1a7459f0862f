"""Benchmarks for the extension analyses (Section VI follow-up, DVFS,
cache-aware ceilings, bounded design-space search)."""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro.core import bounding, dvfs, hierarchy, irregular
from repro.experiments import section_vi
from repro.machine.platforms import all_params, params, platform


def test_section_vi_reproduction(benchmark):
    result = run_once(benchmark, section_vi.run)
    print()
    print(result.to_text())
    assert result.pass_fraction == 1.0


def test_extension_irregular_ranking(benchmark):
    spmv = irregular.spmv_workload(nnz=1e7, n_rows=1e6)

    def run():
        return irregular.rank_by_irregular_efficiency(all_params(), spmv)

    ranking = run_once(benchmark, run)
    order = [pid for pid, _ in ranking]
    print("\nSpMV flop/J ranking:", ", ".join(order[:5]), "...")
    assert order[0] == "arndale-gpu"
    benchmark.extra_info["winner"] = order[0]


def test_extension_dvfs_sweep(benchmark):
    """Energy-optimal frequency across the zoo: savings anti-correlate
    with the pi1 fraction for cap-slack platforms."""

    def run():
        return {
            pid: dvfs.energy_savings(p, 1.0, alpha=0.2)
            for pid, p in all_params().items()
        }

    savings = run_once(benchmark, run)
    print("\nDVFS savings:", {k: f"{v:.1%}" for k, v in savings.items()})
    assert savings["arndale-gpu"] > 0.2  # lowest pi1 fraction: crawls
    assert savings["xeon-phi"] == 0.0  # 83% pi1: races to idle
    benchmark.extra_info["max_saving"] = f"{max(savings.values()):.1%}"


def test_extension_cache_aware_ceilings(benchmark):
    titan = params("gtx-titan")
    grid = np.logspace(-3, 9, 60, base=2)

    def run():
        return hierarchy.ceilings(titan, grid)

    ceilings = run_once(benchmark, run)
    # The ceilings nest and converge at high intensity.
    assert np.all(
        ceilings["L1"].performance >= ceilings["dram"].performance - 1e-6
    )
    speedup = hierarchy.locality_speedup(titan, "L1", 2.0)
    print(f"\nL1-residence speedup at I=2: {speedup:.1f}x")
    assert speedup > 5.0


def test_extension_bounded_design_space(benchmark):
    def run():
        return bounding.crossover_budget(all_params(), 8.0)

    crossings = run_once(benchmark, run)
    print("\nbudget crossovers at I=8:", crossings)
    winners = [w for _, w in crossings]
    # Small budgets favour the fine-grained low-pi1 mobile blocks.
    assert winners[0] in {"pandaboard-es", "arndale-gpu", "arndale-cpu"}
    benchmark.extra_info["n_crossovers"] = len(crossings)


def test_extension_utilisation_model(benchmark):
    """The paper's closing question, answered: a utilisation-aware
    capping model recovers the Arndale-GPU-style effect exactly on a
    campaign where it is the dominant second-order behaviour."""
    from dataclasses import replace

    from repro.core.utilisation import fit_slope
    from repro.machine.config import PlatformEffects
    from repro.machine.governor import GovernorSettings
    from repro.machine.noise import NoiseSpec
    from repro.microbench.suite import CampaignSettings, fit_campaign, run_campaign

    cfg = replace(
        platform("arndale-gpu"),
        effects=PlatformEffects(
            ridge_smoothing=0.0,
            governor=GovernorSettings(period=1e-4, hysteresis=0.005, gain=0.05),
            noise=NoiseSpec(time_sigma=0.003, power_sigma=0.003),
            utilisation_energy_slope=0.15,
        ),
    )

    def run():
        fitted = fit_campaign(
            run_campaign(cfg, CampaignSettings(seed=11, include_double=False))
        )
        return fitted, fit_slope(fitted.capped, fitted.fit_observations)

    fitted, um = run_once(benchmark, run)
    print(f"\nfitted utilisation slope: {um.slope:.3f} (truth 0.15); "
          f"eps_flop {um.base.eps_flop * 1e12:.1f} pJ (truth 84.2)")
    assert abs(um.slope - 0.15) < 0.03
    assert abs(um.base.eps_flop - cfg.truth.eps_flop) / cfg.truth.eps_flop < 0.05
    benchmark.extra_info["slope"] = round(um.slope, 3)

"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation flips one modelling/measurement decision and quantifies
its effect, so the contribution of every mechanism is auditable:

* the capped model's extra parameter vs fit residual;
* anchored vs free time costs in the fit;
* measurement noise vs parameter-recovery error;
* PowerMon sampling rate vs energy-estimator error;
* mean-power vs trapezoid energy estimation;
* governor control period vs closed-form-model agreement.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from conftest import run_once

from repro.core.fitting import fit_machine
from repro.machine.engine import Engine
from repro.machine.kernel import DRAM, KernelSpec
from repro.machine.platforms import platform
from repro.machine.power import PowerTrace
from repro.measurement.energy import trapezoid_energy
from repro.measurement.powermon import PowerMon
from repro.microbench.runner import BenchmarkRunner
from repro.microbench.suite import (
    CampaignSettings,
    fit_campaign,
    run_campaign,
    to_fit_observations,
)

#: The ablations' campaign: Arndale CPU, single precision.
SETTINGS = CampaignSettings(replicates=2, include_double=False)


def _campaign():
    return run_campaign(platform("arndale-cpu"), SETTINGS)


def test_ablation_capped_extra_parameter(benchmark):
    """The cap parameter must buy a large residual reduction on a
    strongly capped platform (Arndale CPU: ridge deficit 1.6x)."""

    def run():
        obs = to_fit_observations(_campaign().single_precision_runs)
        capped = fit_machine(obs, capped=True)
        uncapped = fit_machine(obs, capped=False)
        return capped, uncapped

    capped, uncapped = run_once(benchmark, run)
    ratio = (
        uncapped.diagnostics.rms_log_residual
        / capped.diagnostics.rms_log_residual
    )
    print(f"\nresidual ratio uncapped/capped: {ratio:.2f}")
    assert ratio > 1.5
    benchmark.extra_info["residual_ratio"] = round(ratio, 2)


def test_ablation_anchored_vs_free_times(benchmark):
    """Freeing the time costs lets the uncapped model partially absorb
    the cap by deflating its peaks -- the prior-model construction the
    paper's overprediction bias depends on."""

    def run():
        obs = to_fit_observations(_campaign().single_precision_runs)
        anchored = fit_machine(obs, capped=False, anchor_times=True)
        free = fit_machine(obs, capped=False, anchor_times=False)
        return obs, anchored, free

    obs, anchored, free = run_once(benchmark, run)
    truth = platform("arndale-cpu").truth
    print(
        f"\nanchored tau_flop dev: "
        f"{(anchored.params.tau_flop - truth.tau_flop) / truth.tau_flop:+.1%}; "
        f"free tau_flop dev: "
        f"{(free.params.tau_flop - truth.tau_flop) / truth.tau_flop:+.1%}"
    )
    assert free.params.tau_flop > anchored.params.tau_flop
    assert (
        free.diagnostics.rms_log_residual
        <= anchored.diagnostics.rms_log_residual + 1e-12
    )


def test_ablation_noise_vs_recovery_error(benchmark):
    """Parameter recovery degrades gracefully with measurement noise:
    the noise-free fit recovers eps_mem essentially exactly."""

    def run():
        noisy = fit_campaign(_campaign())
        config = platform("arndale-cpu")
        clean = fit_campaign(
            run_campaign(
                config,
                replace(SETTINGS, replicates=1),
                # seed=None: all stochastic effects off.
                runner=BenchmarkRunner(config, seed=None),
            )
        )
        return noisy, clean

    noisy, clean = run_once(benchmark, run)
    truth = platform("arndale-cpu").truth

    def dev(fit):
        return abs(fit.capped.params.eps_mem - truth.eps_mem) / truth.eps_mem

    print(f"\neps_mem deviation clean {dev(clean):.2%} vs noisy {dev(noisy):.2%}")
    assert dev(clean) < 0.05
    benchmark.extra_info["clean_dev"] = f"{dev(clean):.3%}"
    benchmark.extra_info["noisy_dev"] = f"{dev(noisy):.3%}"


def test_ablation_powermon_sampling_rate(benchmark):
    """Energy-estimator error versus sampling rate on a governed
    (oscillating) trace."""
    engine = Engine(platform("gtx-680"), rng=None)
    kernel = KernelSpec(
        name="ridge", flops=20.0 * 1e9, traffic={DRAM: 1e9}
    ).scaled(40.0)
    result = engine.run(kernel)
    exact = result.true_energy

    def run():
        errors = {}
        for rate in (64.0, 256.0, 1024.0, 8192.0):
            mon = PowerMon(sample_rate=rate, aggregate_limit=1e9, resolution=0.0)
            m = mon.measure({"total": result.trace})
            errors[rate] = abs(m.energy - exact) / exact
        return errors

    errors = run_once(benchmark, run)
    print("\nsampling-rate error:", {k: f"{v:.2%}" for k, v in errors.items()})
    assert errors[8192.0] < 0.02
    assert errors[1024.0] < 0.05  # the real device's rate is adequate
    benchmark.extra_info["err_1024"] = f"{errors[1024.0]:.3%}"


def test_ablation_energy_estimators(benchmark):
    """Mean-power x time (the paper's estimator) vs trapezoid, on a
    strongly varying trace."""
    rng = np.random.default_rng(3)
    trace = PowerTrace.from_durations(
        np.full(500, 1e-3), rng.uniform(80, 120, 500)
    )
    mon = PowerMon(resolution=0.0)

    def run():
        m = mon.measure({"total": trace})
        return m.energy, trapezoid_energy(m)

    mean_e, trap_e = run_once(benchmark, run)
    exact = trace.energy()
    print(
        f"\nmean-power err {abs(mean_e - exact) / exact:.3%}, "
        f"trapezoid err {abs(trap_e - exact) / exact:.3%}"
    )
    assert abs(mean_e - exact) / exact < 0.02
    assert abs(trap_e - exact) / exact < 0.02


def test_ablation_governor_period(benchmark):
    """A coarser control loop tracks the ideal capped time less tightly
    but never undershoots it."""
    from dataclasses import replace

    from repro.machine.governor import GovernorSettings

    # GTX 680: strongly capped at the ridge, no utilisation-energy
    # scaling (which on the Arndale GPU lets runs *beat* the capped
    # model -- the paper's own observed mismatch).
    cfg = platform("gtx-680")
    # Scale to ~0.5 s so even the coarsest loop runs dozens of control
    # intervals (a 9 ms kernel would finish inside the initial ramp).
    kernel = KernelSpec(
        name="ridge", flops=19.0 * 1e9, traffic={DRAM: 1e9}
    ).scaled(60.0)

    def run():
        gaps = {}
        for period in (1e-4, 1e-3, 1e-2):
            tuned = replace(
                cfg,
                effects=replace(
                    cfg.effects, governor=GovernorSettings(period=period)
                ),
            )
            result = Engine(tuned, rng=None).run(kernel)
            gaps[period] = abs(result.wall_time / result.ideal_time - 1.0)
        return gaps

    gaps = run_once(benchmark, run)
    print("\ngovernor period -> |relative gap|:", {k: f"{v:.2%}" for k, v in gaps.items()})
    # Any control period tracks the ideal within a few percent, and a
    # finer loop tracks at least as well as a very coarse one.
    assert all(gap < 0.10 for gap in gaps.values())
    assert gaps[1e-4] <= gaps[1e-2] + 0.02


def test_ablation_fit_uncertainty(benchmark):
    """Seed-bootstrap over the whole pipeline: every Table I parameter
    is pinned within a few percent, with the documented fast-side bias
    on the anchored time costs."""
    from repro.experiments.uncertainty import quantify

    result = run_once(benchmark, quantify, "arndale-cpu", n_seeds=4)
    print()
    print(result.to_table().render())
    for name, spread in result.spreads.items():
        assert spread.cv < 0.15, name
    name, cv = result.worst_cv
    benchmark.extra_info["worst_cv"] = f"{name}={cv:.1%}"


def test_ablation_sweep_density_vs_flags(benchmark):
    """Methodological sensitivity: the K-S flag decision needs enough
    sweep points inside the cap region.  A sparse sweep (1 pt/octave)
    loses the Arndale CPU flag a dense sweep (4 pts/octave) finds."""
    from repro.core.errors import compare_models

    cfg = platform("arndale-cpu")

    def run():
        pvalues = {}
        for density in (1, 4):
            campaign = run_campaign(
                cfg, replace(SETTINGS, points_per_octave=density)
            )
            fitted = fit_campaign(campaign)
            cmp = compare_models(
                fitted.uncapped, fitted.capped, fitted.fit_observations,
                platform="arndale-cpu",
            )
            pvalues[density] = cmp.ks.pvalue
        return pvalues

    pvalues = run_once(benchmark, run)
    print("\nsweep density -> KS p:", {k: f"{v:.2e}" for k, v in pvalues.items()})
    assert pvalues[4] < 0.05  # dense sweep flags the platform
    assert pvalues[4] < pvalues[1]  # density buys test power
    benchmark.extra_info["p_dense"] = f"{pvalues[4]:.1e}"

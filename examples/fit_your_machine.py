#!/usr/bin/env python
"""Characterise a new platform end to end, the way the paper did.

Workflow (Sections IV-V-A):

1. define the platform's *physics* -- here a hypothetical near-future
   low-power accelerator;
2. run the full microbenchmark campaign against it through the
   simulated PowerMon rig;
3. fit the capped and uncapped models to the measurements;
4. compare the recovered constants with the ground truth, and see how
   much accuracy the power cap term buys.

Swap in your own constants to explore a design point.

Run:  python examples/fit_your_machine.py
"""

import numpy as np

from repro.core.errors import compare_models
from repro.core.params import CacheLevelParams, MachineParams, RandomAccessParams
from repro.machine.config import PlatformConfig, PlatformEffects, VendorPeaks
from repro.machine.governor import GovernorSettings
from repro.machine.noise import NoiseSpec
from repro.microbench.suite import CampaignSettings, fit_campaign, run_campaign
from repro.report import Table, fmt_si

# ---------------------------------------------------------------------------
# 1. The device under test: a hypothetical 5 W edge accelerator.
# ---------------------------------------------------------------------------
truth = MachineParams.from_throughputs(
    "edge-npu",
    flops=250e9,
    bandwidth=20e9,
    eps_flop=8e-12,    # pi_flop = 2.0 W
    eps_mem=150e-12,   # pi_mem  = 3.0 W
    pi1=1.5,
    delta_pi=3.5,      # < 5 W of demand at the ridge: the cap bites
    caches=(
        CacheLevelParams("L1", eps_byte=15e-12, bandwidth=80e9, capacity=64 * 1024),
    ),
    random=RandomAccessParams(eps_access=30e-9, rate=50e6),
)

device = PlatformConfig(
    truth=truth,
    vendor=VendorPeaks(flops_single=300e9, bandwidth=25.6e9),
    effects=PlatformEffects(
        ridge_smoothing=0.12,
        governor=GovernorSettings(period=1e-3),
        noise=NoiseSpec(time_sigma=0.01, power_sigma=0.01),
    ),
    idle_power=1.1,
    line_size=64,
    kind="gpu",
)

# ---------------------------------------------------------------------------
# 2-3. Campaign and fits.
# ---------------------------------------------------------------------------
print(f"benchmarking {device.name} ...")
campaign = run_campaign(
    device, CampaignSettings(seed=7, replicates=2, include_double=False)
)
fitted = fit_campaign(campaign)
print(f"  {campaign.n_runs} runs executed")
print()

# ---------------------------------------------------------------------------
# 4. Recovered constants vs ground truth.
# ---------------------------------------------------------------------------
table = Table(
    columns=["parameter", "fitted", "truth", "deviation"],
    title="Recovered parameter vector (capped model)",
)
fit = fitted.capped.params
for label, f_val, t_val in (
    ("sustained flop/s", fitted.sustained_flops, truth.peak_flops),
    ("sustained B/s", fitted.sustained_bandwidth, truth.peak_bandwidth),
    ("eps_flop", fit.eps_flop, truth.eps_flop),
    ("eps_mem", fit.eps_mem, truth.eps_mem),
    ("eps_L1", fit.cache_level("L1").eps_byte, truth.cache_level("L1").eps_byte),
    ("eps_rand", fit.random.eps_access, truth.random.eps_access),
    ("pi1", fit.pi1, truth.pi1),
    ("delta_pi", fit.delta_pi, truth.delta_pi),
):
    table.add_row(
        label, fmt_si(f_val), fmt_si(t_val), f"{(f_val - t_val) / t_val:+.1%}"
    )
print(table.render())
print()

# How much does modelling the cap matter on this device?
cmp = compare_models(
    fitted.uncapped, fitted.capped, fitted.fit_observations, platform=device.name
)
print("model comparison (performance prediction error):")
print(
    f"  uncapped: median {cmp.uncapped.median:+.3f}, "
    f"IQR {cmp.uncapped.stats.iqr:.3f}, worst {cmp.uncapped.stats.maximum:+.3f}"
)
print(
    f"  capped:   median {cmp.capped.median:+.3f}, "
    f"IQR {cmp.capped.stats.iqr:.3f}, worst {cmp.capped.stats.maximum:+.3f}"
)
print(
    f"  K-S p-value {cmp.ks.pvalue:.2e}"
    + (" -- the distributions differ significantly" if cmp.distributions_differ else "")
)
print()

# Derived design insights, straight from the fitted vector.
print("derived characteristics:")
print(f"  time balance    {fit.time_balance:6.2f} flop/B")
print(
    f"  cap-bound range [{fit.time_balance_lower:.2f}, "
    f"{fit.time_balance_upper:.2f}] flop/B"
)
print(f"  peak efficiency {fit.peak_flops_per_joule / 1e9:6.2f} Gflop/J")
print(f"  pi1 fraction    {fit.constant_power_fraction:6.1%} of max power")

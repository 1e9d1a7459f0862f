"""archline -- a full reproduction of *Algorithmic Time, Energy, and
Power on Candidate HPC Compute Building Blocks* (Choi, Dukhan, Liu,
Vuduc; IPDPS 2014).

The package layers four systems (see DESIGN.md):

* :mod:`repro.core` -- the paper's contribution: the power-capped
  energy-roofline model (eqs. 1-7), parameter fitting, balance and
  throttling analyses, power-matched ensembles;
* :mod:`repro.machine` -- a simulated hardware substrate standing in
  for the paper's nine physical systems (twelve platforms), with
  Table I's fitted constants as ground-truth physics plus the
  second-order effects real hardware adds;
* :mod:`repro.microbench` -- the Section IV microbenchmark suite
  (intensity sweep, cache benchmarks, pointer chase, sustained peaks);
* :mod:`repro.measurement` -- a software twin of the PowerMon 2 /
  PCIe-interposer measurement rig;

plus :mod:`repro.experiments` (one module per paper table/figure),
:mod:`repro.report` (plain-text rendering), and
:mod:`repro.telemetry` (span tracing and metrics for campaign
execution -- a no-op unless enabled, see docs/TELEMETRY.md).

Quickstart
----------
>>> from repro import performance
>>> from repro.machine import platforms
>>> titan = platforms.params("gtx-titan")
>>> round(performance(titan, 4.0) / 1e9)  # Gflop/s at I = 4 flop:Byte
956
"""

from ._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".core.fitting": ("fit_machine",),
        ".core.model": (
            "Regime",
            "avg_power",
            "energy",
            "energy_per_flop",
            "flops_per_joule",
            "performance",
            "power_curve",
            "regime",
            "time",
            "time_per_flop",
        ),
        ".core.params": ("CacheLevelParams", "MachineParams", "RandomAccessParams"),
        ".core.rooflines": (
            "crossover_intensities",
            "intensity_grid",
            "sample_curve",
        ),
        ".core.scaling": ("compare_power_matched", "ensemble"),
        ".core.throttle": ("throttle_scenario",),
    },
)
__all__ += ["__version__"]

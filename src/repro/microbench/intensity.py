"""The intensity microbenchmark (Section IV-e).

Varies operational intensity "nearly continuously" by changing the
number of flops performed on each word loaded from slow memory.  The
sweep below covers 2^-3 .. 2^9 flop:Byte by default -- the figures'
x-range -- with replicated runs at every point so the error
distributions of Fig. 4 have within-point spread.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.rooflines import intensity_grid
from ..machine.config import PlatformConfig
from .kernels import intensity_kernel
from .runner import BenchmarkRunner, Observation

__all__ = ["default_intensities", "balanced_intensities", "intensity_sweep"]


def default_intensities(
    i_min: float = 2.0 ** -3,
    i_max: float = 2.0 ** 7,
    points_per_octave: int = 3,
) -> np.ndarray:
    """A platform-independent sweep grid (31 points over 10 octaves)."""
    return intensity_grid(i_min, i_max, points_per_octave)


def balanced_intensities(
    config: PlatformConfig,
    *,
    octaves_below: float = 5.0,
    octaves_above: float = 3.0,
    points_per_octave: int = 3,
) -> np.ndarray:
    """A sweep centred on the platform's time balance ``B_tau``.

    Hand-tuned microbenchmark sweeps concentrate on the region around
    the machine's balance point, where the roofline (and any power-cap
    behaviour) actually turns -- sampling 2^9 flop:Byte on a machine
    whose balance is 4 wastes runs deep in a featureless plateau.  The
    default covers ``B_tau / 32`` to ``B_tau * 8``.
    """
    b_tau = config.truth.time_balance
    return intensity_grid(
        b_tau / 2.0 ** octaves_below,
        b_tau * 2.0 ** octaves_above,
        points_per_octave,
    )


def intensity_sweep(
    runner: BenchmarkRunner,
    intensities: Sequence[float] | np.ndarray | None = None,
    *,
    replicates: int = 2,
    precision: str = "single",
) -> list[Observation]:
    """Run the intensity sweep and return one observation per run.

    ``precision="double"`` sweeps the double-precision variant on
    platforms that support it (raises otherwise, like the real
    benchmarks simply not existing there).  When ``intensities`` is not
    given, the sweep is the platform's :func:`balanced_intensities`
    grid.
    """
    grid = (
        balanced_intensities(runner.config)
        if intensities is None
        else np.asarray(intensities)
    )
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("intensities must be a non-empty 1-D sequence")
    kernels = [
        intensity_kernel(runner.config, float(intensity), precision=precision)
        for intensity in grid
    ]
    # One vectorised dry run calibrates the whole grid up front; the
    # sweep below then hits the runner's cache.
    runner.prime_calibration(kernels)
    return runner.execute_sweep(
        [(kernel, "intensity") for kernel in kernels], replicates
    )

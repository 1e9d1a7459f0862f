"""Bootstrap confidence intervals.

Used to put an uncertainty band on the Section V-C correlation
coefficient, where a closed-form interval would need distributional
assumptions the paper explicitly avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["BootstrapCI", "bootstrap_paired_ci"]


@dataclass(frozen=True)
class BootstrapCI:
    """A percentile bootstrap confidence interval."""

    estimate: float  #: statistic on the original sample.
    low: float
    high: float
    confidence: float
    n_resamples: int


def bootstrap_paired_ci(
    x: Sequence[float],
    y: Sequence[float],
    statistic: Callable[[np.ndarray, np.ndarray], float],
    *,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    rng: np.random.Generator | None = None,
) -> BootstrapCI:
    """Percentile bootstrap CI for a paired two-sample statistic
    (pairs are resampled together -- e.g. a correlation)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError("x and y must have the same length")
    if xa.size < 2:
        raise ValueError("need at least two pairs")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if n_resamples < 10:
        raise ValueError("n_resamples must be >= 10")
    rng = rng or np.random.default_rng(0)
    idx = rng.integers(0, xa.size, size=(n_resamples, xa.size))
    stats = np.array([statistic(xa[row], ya[row]) for row in idx])
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(stats, [alpha, 1.0 - alpha])
    return BootstrapCI(
        estimate=float(statistic(xa, ya)),
        low=float(low),
        high=float(high),
        confidence=confidence,
        n_resamples=n_resamples,
    )

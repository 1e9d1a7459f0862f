"""Stochastic second-order effects of the simulated platforms.

The paper's measurements are not noiseless, and two platforms exhibit
systematic artifacts the model does not capture (Section V-C):

* the NUC GPU suffers *OS interference* -- Windows-only OpenCL drivers
  without user-level power management caused run-to-run variability; we
  model this as Poisson-arriving stalls during which no progress is
  made and the platform draws only constant power;
* run-to-run throughput and sensor noise, modelled as multiplicative
  lognormal factors so that values stay positive and relative error is
  symmetric in log space.

All randomness flows through an explicit ``numpy.random.Generator`` so
every simulated campaign is exactly reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .power import PowerTrace

__all__ = [
    "NoiseSpec",
    "lognormal_factor",
    "power_noise",
    "apply_trace_noise",
    "sample_stalls",
    "insert_stalls",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Magnitudes of a platform's stochastic effects."""

    #: lognormal sigma on wall time (run-to-run throughput variation).
    time_sigma: float = 0.0
    #: relative white noise applied per trace segment (sensor-side).
    power_sigma: float = 0.0
    #: OS-interference stall events per second (Poisson rate).
    interference_rate: float = 0.0
    #: mean stall duration per event, seconds (exponential).
    interference_duration: float = 0.0

    def __post_init__(self) -> None:
        for name in ("time_sigma", "power_sigma", "interference_rate",
                     "interference_duration"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if (self.interference_rate > 0) != (self.interference_duration > 0):
            raise ValueError(
                "interference_rate and interference_duration must be "
                "both zero or both positive"
            )


def lognormal_factor(rng: np.random.Generator, sigma: float) -> float:
    """A multiplicative noise factor with median 1.

    ``sigma = 0`` deterministically returns 1.0 so noise-free configs
    consume no random numbers (keeps seeded campaigns comparable across
    noise settings).
    """
    # Exact sentinel: sigma=0.0 means "noise disabled" and must consume
    # no random draws.  # archlint: disable=ARCH004
    if sigma == 0.0:
        return 1.0
    return float(np.exp(rng.normal(0.0, sigma)))


def power_noise(
    rng: np.random.Generator, values: np.ndarray, sigma: float
) -> np.ndarray:
    """Segment powers each multiplied by independent lognormal noise."""
    # Exact sentinel: sigma=0.0 means "noise disabled" and must consume
    # no random draws.  # archlint: disable=ARCH004
    if sigma == 0.0:
        return values
    return values * np.exp(rng.normal(0.0, sigma, size=len(values)))


def apply_trace_noise(
    rng: np.random.Generator, trace: PowerTrace, sigma: float
) -> PowerTrace:
    """Multiply each segment's power by independent lognormal noise."""
    values = power_noise(rng, trace.values, sigma)
    if values is trace.values:
        return trace
    return PowerTrace(trace.edges.copy(), values)


def sample_stalls(
    rng: np.random.Generator,
    duration: float,
    rate: float,
    mean_stall: float,
) -> list[tuple[float, float]]:
    """Sample interference events over a run of ``duration`` seconds.

    Returns ``(time, stall_length)`` pairs sorted by time, where
    ``time`` is the instant (within the un-stalled timeline) at which
    the stall begins.  The Poisson count uses the *active* duration, so
    stalls do not breed further stalls.
    """
    # Exact sentinel: rate=0.0 means "interference disabled" and must
    # consume no random draws.  # archlint: disable=ARCH004
    if rate == 0.0 or duration <= 0.0:
        return []
    count = int(rng.poisson(rate * duration))
    if count == 0:
        return []
    times = np.sort(rng.uniform(0.0, duration, size=count))
    lengths = rng.exponential(mean_stall, size=count)
    return [(float(t), float(length)) for t, length in zip(times, lengths)]


def insert_stalls(
    trace: PowerTrace,
    stalls: list[tuple[float, float]],
    stall_power: float,
) -> PowerTrace:
    """Insert zero-progress stall segments into a trace.

    Each ``(time, length)`` stall splits the trace at ``time`` (a point
    on the original, un-stalled timeline) and inserts ``length``
    seconds at ``stall_power`` Watts.  The run's useful work is
    unchanged but its wall time grows -- which is exactly how OS
    interference corrupts a throughput measurement.
    """
    if not stalls:
        return trace
    segments = list(zip(trace.segment_durations, trace.values))
    total = trace.duration
    # Process stalls latest-first: every insertion happens at or after
    # the current stall's position, so earlier original-timeline
    # coordinates stay valid for the remaining stalls.
    for time, length in sorted(stalls, reverse=True):
        if length <= 0.0:
            continue
        t = min(max(time - float(trace.edges[0]), 0.0), total)
        rebuilt: list[tuple[float, float]] = []
        elapsed = 0.0
        inserted = False
        for duration, value in segments:
            if not inserted and elapsed + duration >= t:
                left = t - elapsed
                if left > 0.0:
                    rebuilt.append((left, value))
                rebuilt.append((length, stall_power))
                right = duration - left
                if right > 0.0:
                    rebuilt.append((right, value))
                inserted = True
            else:
                rebuilt.append((duration, value))
            elapsed += duration
        if not inserted:  # numerically at/after the very end
            rebuilt.append((length, stall_power))
        segments = rebuilt
    durations = np.array([d for d, _ in segments])
    values = np.array([p for _, p in segments])
    # Splitting can leave degenerate slivers whose width underflows the
    # edge accumulation; drop them (their energy is below float noise).
    keep = durations > 1e-12 * max(float(np.sum(durations)), 1e-300)
    durations, values = durations[keep], values[keep]
    out = PowerTrace.from_durations(durations, values)
    # Preserve the original start offset.
    return PowerTrace(out.edges + float(trace.edges[0]), out.values)

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

    Stalls go in latest first, so earlier original-timeline coordinates
    stay valid for the remaining stalls.  Each splits the first segment
    whose end, summing the timeline's segments in order, reaches its
    time (a stall no segment reaches is appended).  The segments before
    the leftmost split so far are the trace's own, so one
    ``searchsorted`` on their running sums finds a stall's segment;
    only the pieces from the leftmost split on are walked, as rounding
    decides where a stall tied with an earlier one lands.
    """
    if not stalls:
        return trace
    start = float(trace.edges[0])
    total = trace.duration
    stalls = sorted(stalls, reverse=True)
    times = [min(max(time - start, 0.0), total) for time, _ in stalls]
    durations = trace.segment_durations
    ends = np.cumsum(durations)
    segments = np.searchsorted(ends, times).tolist()
    ends, durations, values = ends.tolist(), durations.tolist(), trace.values.tolist()
    # The timeline: segments [0, first), then the pieces in ``tail``.
    first = len(durations)
    tail: list[tuple[float, float]] = []
    for (_, length), t, j in zip(stalls, times, segments):
        if length <= 0.0:
            continue
        if j < first:
            tail[:0] = zip(durations[j:first], values[j:first])
            first = j
        elapsed = ends[first - 1] if first else 0.0
        for k, (duration, value) in enumerate(tail):
            if elapsed + duration >= t:
                left = t - elapsed
                pieces = [(left, value)] if left > 0.0 else []
                pieces.append((length, stall_power))
                if duration - left > 0.0:
                    pieces.append((duration - left, value))
                tail[k : k + 1] = pieces
                break
            elapsed += duration
        else:  # numerically at/after the very end
            tail.append((length, stall_power))
    durations = np.array(durations[:first] + [d for d, _ in tail])
    values = np.array(values[:first] + [p for _, p in tail])
    # Splitting can leave degenerate slivers whose width underflows the
    # edge accumulation; drop them (their energy is below float noise).
    keep = durations > 1e-12 * max(float(np.sum(durations)), 1e-300)
    durations, values = durations[keep], values[keep]
    # Preserve the original start offset.
    edges = np.concatenate([[0.0], np.cumsum(durations)]) + start
    return PowerTrace(edges, values)

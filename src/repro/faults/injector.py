"""Seeded application of a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` owns one random stream, derived from
``(plan.seed, key)`` with :class:`numpy.random.SeedSequence`, and
applies the plan's fault models at the measurement boundary:

* :meth:`corrupt_channel` -- per-channel sample corruption (desync,
  timestamp jitter, dropout, NaN readings, ADC saturation), operating
  on the raw ``(times, power)`` arrays *before* they become a
  :class:`~repro.measurement.powermon.ChannelReading`;
* :meth:`fail_run` -- whole-run losses.

Two properties the differential test harness relies on:

* **zero is free** -- a fault model whose rate/magnitude is zero never
  draws from the stream and returns its inputs *unchanged* (the very
  same arrays), so an all-zero plan is bit-for-bit the no-fault path;
* **seeded determinism** -- the corruption applied by two injectors
  with the same ``(plan, key)`` over the same call sequence is
  identical, so any corrupted campaign reproduces from its seed.

The injector deliberately knows nothing about the measurement layer
(it consumes plain arrays and run names), keeping the dependency
one-way: measurement imports faults, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plan import FaultPlan

__all__ = ["FaultCounters", "FaultInjector"]


@dataclass
class FaultCounters:
    """Running totals of every corruption an injector has applied."""

    samples_dropped: int = 0
    samples_nan: int = 0
    samples_saturated: int = 0
    channels_desynced: int = 0
    channels_emptied: int = 0
    runs_failed: int = 0

    @property
    def samples_corrupted(self) -> int:
        """Total individually-corrupted samples (dropped + NaN + clipped)."""
        return self.samples_dropped + self.samples_nan + self.samples_saturated


class FaultInjector:
    """Applies one seeded :class:`FaultPlan` to measurement-layer data.

    Parameters
    ----------
    plan:
        What to inject, at which rates.
    key:
        Optional extra entropy mixed into the stream (a campaign's
        runners pass the campaign seed).  Injectors with equal
        ``(plan, key)`` draw the same stream, so a platform's
        corruption depends on the plan, the key and the calls that
        platform makes -- not on which other injectors exist.
    """

    def __init__(self, plan: FaultPlan, *, key: int | None = None) -> None:
        self.plan = plan
        self.key = key
        entropy = [plan.seed] if key is None else [plan.seed, key]
        self._rng = np.random.default_rng(np.random.SeedSequence(entropy))
        self.counters = FaultCounters()
        # A desynced channel stays desynced: clock skew is a property of
        # the channel, drawn once per rail and reused for every run.
        self._rail_skew: dict[str, float] = {}

    @property
    def active(self) -> bool:
        """Whether this injector can ever corrupt anything."""
        return not self.plan.is_zero

    # ------------------------------------------------------------------
    # Channel-level corruption.
    # ------------------------------------------------------------------

    def _skew_for(self, rail: str) -> float:
        skew = self._rail_skew.get(rail)
        if skew is None:
            skew = 0.0
            if self._rng.random() < self.plan.desync_probability:
                skew = float(
                    self._rng.uniform(
                        -self.plan.channel_desync, self.plan.channel_desync
                    )
                )
                self.counters.channels_desynced += 1
            self._rail_skew[rail] = skew
        return skew

    def corrupt_channel(
        self, rail: str, times: np.ndarray, power: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Corrupt one channel's sampled ``(times, power)`` arrays.

        Applied in a fixed order (desync, jitter, dropout, NaN,
        saturation) so the stream consumption is reproducible.  May
        return *empty* arrays when dropout removes every sample; the
        caller decides whether that is fatal
        (:class:`~repro.faults.errors.EmptyChannelError`).
        """
        plan = self.plan
        if plan.channel_desync > 0.0 and plan.desync_probability > 0.0:
            skew = self._skew_for(rail)
            if skew != 0.0:
                times = times + skew
        if plan.timestamp_jitter > 0.0:
            # Host-side timestamping noise: the recorded clock wobbles
            # but stays monotone (the host never reorders frames).
            times = np.sort(
                times + self._rng.normal(0.0, plan.timestamp_jitter, len(times))
            )
        if plan.sample_dropout > 0.0:
            keep = self._rng.random(len(times)) >= plan.sample_dropout
            dropped = int(len(times) - np.count_nonzero(keep))
            if dropped:
                self.counters.samples_dropped += dropped
                times = times[keep]
                power = power[keep]
                if len(times) == 0:
                    self.counters.channels_emptied += 1
                    return times, power
        if plan.nan_rate > 0.0:
            invalid = self._rng.random(len(power)) < plan.nan_rate
            n_invalid = int(np.count_nonzero(invalid))
            if n_invalid:
                self.counters.samples_nan += n_invalid
                power = power.copy()
                power[invalid] = np.nan
        if plan.saturation_power is not None:
            clipped = power > plan.saturation_power
            n_clipped = int(np.count_nonzero(clipped))
            if n_clipped:
                self.counters.samples_saturated += n_clipped
                power = np.minimum(power, plan.saturation_power)
        return times, power

    # ------------------------------------------------------------------
    # Run-level faults.
    # ------------------------------------------------------------------

    def fail_run(self, run: str) -> bool:
        """Whether this whole run is lost (rig hang, host crash)."""
        if self.plan.run_failure_rate == 0.0:
            return False
        failed = bool(self._rng.random() < self.plan.run_failure_rate)
        if failed:
            self.counters.runs_failed += 1
        return failed

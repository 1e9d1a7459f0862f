"""A software twin of PowerMon 2 (Bedard et al., 2010).

The physical device sits between a platform and its DC source, samples
voltage and current per channel at 1024 Hz (up to 8 channels, 3072 Hz
aggregate), and reports time-stamped instantaneous power.  The paper
computes average power as the mean of those samples and energy as
average power times execution time.

The twin reproduces that estimator end to end: uniform sampling of the
ground-truth :class:`~repro.machine.power.PowerTrace`, ADC quantisation
per channel, per-channel averaging, and multi-source summation for
platforms that draw from several rails.  Its error relative to the
exact trace integral is itself an object of study (an ablation bench
sweeps the sampling rate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..faults.errors import EmptyChannelError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..machine.power import PowerTrace, RaggedTraces

__all__ = ["ChannelReading", "Measurement", "PowerMon"]


@dataclass(frozen=True)
class ChannelReading:
    """Samples captured on one PowerMon channel."""

    rail: str
    times: np.ndarray  #: sample timestamps, seconds.
    power: np.ndarray  #: instantaneous power per sample, Watts.

    def __post_init__(self) -> None:
        if len(self.times) != len(self.power):
            raise ValueError(
                f"channel for rail {self.rail!r}: times and power must have "
                f"equal lengths, got {len(self.times)} and {len(self.power)}"
            )
        if len(self.times) == 0:
            # Named error: an all-dropped channel is a rig fault the
            # resilient execution path retries, not a programming error.
            raise EmptyChannelError(self.rail)

    @property
    def average_power(self) -> float:
        """Mean of instantaneous samples (the paper's estimator), W."""
        return float(np.mean(self.power))

    @property
    def n_samples(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class Measurement:
    """One complete measured run: all channels plus derived values."""

    channels: tuple[ChannelReading, ...]
    duration: float  #: wall time of the run, seconds.

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("a measurement needs at least one channel")
        if not self.duration > 0:
            raise ValueError("duration must be positive")

    @property
    def average_power(self) -> float:
        """Total average power: per-rail averages summed (Section IV-h)."""
        return float(sum(ch.average_power for ch in self.channels))

    @property
    def energy(self) -> float:
        """The paper's energy estimator: average power x wall time, J."""
        return self.average_power * self.duration

    def channel(self, rail: str) -> ChannelReading:
        """Reading for one named rail."""
        for ch in self.channels:
            if ch.rail == rail:
                return ch
        raise KeyError(
            f"no channel for rail {rail!r}; have {[c.rail for c in self.channels]}"
        )


class PowerMon:
    """The sampling instrument.

    Parameters
    ----------
    sample_rate:
        Per-channel rate in Hz (1024 for the real device).
    max_channels:
        Channel count limit (8).
    aggregate_limit:
        Total samples/s across channels (3072); when exceeded, the
        per-channel rate is reduced proportionally, as on the device.
    resolution:
        ADC quantisation step in Watts (0 disables).  The real device
        digitises V and I; a power-domain step is the aggregate effect.
    faults:
        Optional seeded rig-fault model applied to every captured
        channel (a :class:`~repro.faults.plan.FaultPlan`, or a shared
        :class:`~repro.faults.injector.FaultInjector` when several
        instruments must draw from one stream).  ``None`` -- and any
        all-zero plan -- leaves the capture path bit-for-bit unchanged.
    """

    def __init__(
        self,
        sample_rate: float = 1024.0,
        max_channels: int = 8,
        aggregate_limit: float = 3072.0,
        resolution: float = 0.01,
        faults: FaultPlan | FaultInjector | None = None,
    ) -> None:
        if not sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        if max_channels < 1:
            raise ValueError("max_channels must be >= 1")
        if not aggregate_limit > 0:
            raise ValueError("aggregate_limit must be positive")
        if resolution < 0:
            raise ValueError("resolution must be non-negative")
        self.sample_rate = sample_rate
        self.max_channels = max_channels
        self.aggregate_limit = aggregate_limit
        self.resolution = resolution
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        self.injector: FaultInjector | None = faults

    def effective_rate(self, n_channels: int) -> float:
        """Per-channel rate after the aggregate-bandwidth limit."""
        if n_channels < 1:
            raise ValueError("n_channels must be >= 1")
        if n_channels > self.max_channels:
            raise ValueError(
                f"PowerMon supports {self.max_channels} channels, got {n_channels}"
            )
        return min(self.sample_rate, self.aggregate_limit / n_channels)

    def _quantise(self, power: np.ndarray) -> np.ndarray:
        if self.resolution == 0.0:
            return power
        return np.round(power / self.resolution) * self.resolution

    def measure(self, rails: dict[str, PowerTrace]) -> Measurement:
        """Sample one run across its rails.

        All rail traces must cover the same duration (they describe one
        physical run).  Sampling is uniform with a half-period offset so
        a one-sample capture reads mid-run.
        """
        if not rails:
            raise ValueError("need at least one rail trace")
        durations = {name: trace.duration for name, trace in rails.items()}
        duration = max(durations.values())
        if max(durations.values()) - min(durations.values()) > 1e-9 * duration:
            raise ValueError(f"rail traces disagree on duration: {durations}")
        rate = self.effective_rate(len(rails))
        n = max(1, int(np.floor(duration * rate)))
        # Runs shorter than one sampling period still yield one reading,
        # taken mid-run (the device latches at least one sample).
        period = duration / n if duration * rate < 1.0 else 1.0 / rate
        channels = []
        inject = self.injector is not None and self.injector.active
        for name, trace in rails.items():
            offset = float(trace.edges[0])
            times = offset + (np.arange(n) + 0.5) * period
            power = self._quantise(trace.sample(times))
            if inject:
                times, power = self.injector.corrupt_channel(name, times, power)
            # ChannelReading itself rejects the empty case, but raising
            # here names the fault before the dataclass gets a chance to.
            if len(times) == 0:
                raise EmptyChannelError(name)
            channels.append(ChannelReading(rail=name, times=times, power=power))
        return Measurement(channels=tuple(channels), duration=duration)

    def average_powers(
        self, traces: RaggedTraces, rails: np.ndarray
    ) -> np.ndarray:
        """Every trace's total average power, as :meth:`measure` reads it.

        ``rails`` holds each segment's rail powers, ``(segments x
        rails)`` over the traces' own edges (see
        :meth:`~repro.measurement.rails.RailTopology.shares`).  The
        runs' samples are laid end to end, runs sorted by sample count,
        so the runs that share a count form one ``(runs x samples)``
        block per channel, and each channel's mean is a row reduction
        of it: per row the same pairwise sum ``np.mean`` makes of one
        channel, so every value is bit-identical to measuring the run
        alone.  Only a fault-free instrument measures a batch; an
        active fault plan corrupts one capture at a time.
        """
        if self.injector is not None and self.injector.active:
            raise ValueError("an active fault plan measures one run at a time")
        columns = np.asarray(rails).T.copy()  # one contiguous row per rail
        rate = self.effective_rate(len(columns))
        durations = traces.durations
        counts = np.maximum(1, np.floor(durations * rate).astype(np.int64))
        # Runs shorter than one sampling period still yield one reading,
        # taken mid-run (the device latches at least one sample).
        periods = np.where(durations * rate < 1.0, durations / counts, 1.0 / rate)
        order = np.argsort(counts, kind="stable")
        sizes = counts[order]
        ends = np.cumsum(sizes)
        begins = ends - sizes
        run = np.repeat(order, sizes)  # the run each sample belongs to
        k = np.arange(ends[-1]) - np.repeat(begins, sizes)
        offset = traces.edges[traces.first][run]
        times = offset + (k + 0.5) * periods[run]
        if (times < offset).any() or (times > traces.edges[traces.last][run]).any():
            raise ValueError("sample times must lie within the trace")
        # Each sample's segment: a one-segment trace's only one, else
        # the segment its time falls in.
        index = traces.offsets[run]
        segments = traces.segment_counts
        for j in np.flatnonzero(segments[order] > 1):
            r, a, b = order[j], begins[j], ends[j]
            edges = traces.edges[traces.first[r]:traces.last[r] + 1]
            found = np.searchsorted(edges, times[a:b], side="right") - 1
            index[a:b] += np.clip(found, 0, segments[r] - 1)
        # (rails, samples), C-contiguous: in each block below one run's
        # samples are the contiguous last axis, so the reduction over
        # it is np.mean's pairwise row sum (over a strided axis, as
        # ``columns[:, index]`` lays it out, it would sum sequentially).
        samples = self._quantise(np.take(columns, index, axis=1))
        totals = np.zeros(len(traces))
        cuts = np.flatnonzero(np.diff(sizes)) + 1
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(order)]):
            n = int(sizes[lo])
            block = samples[:, begins[lo]:ends[hi - 1]]
            # np.mean's own steps: the row sum, then / n.
            means = np.add.reduce(block.reshape(len(columns), hi - lo, n), axis=2) / n
            total = np.zeros(hi - lo)
            for mean in means:  # summed over rails in order, from 0
                total += mean
            totals[order[lo:hi]] = total
        return totals

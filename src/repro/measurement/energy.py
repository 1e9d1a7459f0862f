"""Energy estimators over sampled power.

The paper's estimator is deliberately simple: *average sampled power
times execution time*, summed over sources.  This module provides that
estimator, the trapezoidal alternative, and the full measurement
pipeline (platform trace -> rail split -> PowerMon -> energy) used by
every benchmark runner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.config import PlatformConfig
from ..machine.power import PowerTrace, RaggedTraces
from .powermon import Measurement, PowerMon
from .rails import RailTopology, topology_for

__all__ = [
    "MeasuredRun",
    "MeasuredBatch",
    "mean_power_energy",
    "trapezoid_energy",
    "MeasurementRig",
]


def mean_power_energy(measurement: Measurement) -> float:
    """The paper's estimator: sum of rail average powers x duration."""
    return measurement.energy


def trapezoid_energy(measurement: Measurement) -> float:
    """Trapezoidal integration per rail, summed; end gaps are padded
    with the edge samples.  Used by an ablation bench to quantify how
    much the simpler estimator gives up."""
    total = 0.0
    for channel in measurement.channels:
        times = channel.times
        power = channel.power
        if len(times) == 1:
            total += float(power[0]) * measurement.duration
            continue
        start = times[0] - (times[1] - times[0]) / 2.0
        end = times[-1] + (times[-1] - times[-2]) / 2.0
        t = np.concatenate([[start], times, [end]])
        p = np.concatenate([[power[0]], power, [power[-1]]])
        total += float(np.trapezoid(p, t))
    return total


@dataclass(frozen=True)
class MeasuredRun:
    """What the experimenter records for one benchmark run."""

    wall_time: float  #: seconds (host-clock timing, exact).
    energy: float  #: Joules, from the mean-power estimator.
    avg_power: float  #: Watts.
    measurement: Measurement  #: raw per-channel data.

    def __post_init__(self) -> None:
        if not self.wall_time > 0:
            raise ValueError("wall_time must be positive")


@dataclass(frozen=True)
class MeasuredBatch:
    """What the experimenter records for a whole sweep, per run."""

    wall_times: np.ndarray  #: seconds (host-clock timing, exact).
    energies: np.ndarray  #: Joules, from the mean-power estimator.
    avg_powers: np.ndarray  #: Watts.


class MeasurementRig:
    """PowerMon wired to one platform's power rails (Fig. 3).

    A seeded rig-fault model reaches the rig on its ``powermon`` (see
    :class:`~repro.measurement.powermon.PowerMon`'s ``faults``).
    """

    def __init__(
        self,
        config: PlatformConfig,
        powermon: PowerMon | None = None,
        topology: RailTopology | None = None,
    ) -> None:
        self.config = config
        self.powermon = powermon or PowerMon()
        self.topology = topology or topology_for(config)

    def measure(self, trace: PowerTrace) -> MeasuredRun:
        """Measure one run's total-power trace the way the rig would."""
        rails = self.topology.split(trace)
        measurement = self.powermon.measure(rails)
        return MeasuredRun(
            wall_time=trace.duration,
            energy=mean_power_energy(measurement),
            avg_power=measurement.average_power,
            measurement=measurement,
        )

    def measure_batch(self, traces: RaggedTraces) -> MeasuredBatch:
        """Measure a whole sweep's total-power traces, one per run.

        Every segment of the sweep is split over the rails in one pass
        and PowerMon samples the runs in groups (see
        :meth:`PowerMon.average_powers`), so each run's wall time,
        energy and average power are bit-identical to :meth:`measure`
        of its trace.  The instrument must be fault-free.
        """
        durations = traces.durations
        avg_powers = self.powermon.average_powers(
            traces, self.topology.shares(traces.values)
        )
        return MeasuredBatch(
            wall_times=durations,
            energies=avg_powers * durations,
            avg_powers=avg_powers,
        )

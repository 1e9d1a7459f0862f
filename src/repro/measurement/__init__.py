"""Simulated measurement rig: PowerMon 2 and the power rails.

Rig *faults* (dropout, jitter, desync, saturation, NaN readings) live
in :mod:`repro.faults` and plug into :class:`PowerMon` via its
``faults=`` parameter; the named error an emptied channel raises
(:class:`~repro.faults.errors.EmptyChannelError`) is re-exported for
convenience.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "..faults.errors": ("EmptyChannelError",),
        ".energy": (
            "MeasuredRun",
            "MeasurementRig",
            "mean_power_energy",
            "trapezoid_energy",
        ),
        ".powermon": ("ChannelReading", "Measurement", "PowerMon"),
        ".rails": ("PCIE_SLOT_LIMIT", "RailTopology", "topology_for"),
    },
)

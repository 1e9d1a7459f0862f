"""Simulated measurement rig: PowerMon 2, PCIe interposer, rails.

Rig *faults* (dropout, jitter, desync, saturation, truncation, lost
runs) live in :mod:`repro.faults` and plug into every instrument here
via a ``faults=`` parameter; the named errors they raise
(:class:`~repro.faults.errors.EmptyChannelError`,
:class:`~repro.faults.errors.TruncatedSessionError`, ...) are
re-exported for convenience.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "..faults.errors": ("EmptyChannelError", "TruncatedSessionError"),
        ".energy": (
            "MeasuredRun",
            "MeasurementRig",
            "mean_power_energy",
            "trapezoid_energy",
        ),
        ".interposer": ("InterposerReading", "PCIeInterposer"),
        ".powermon": ("ChannelReading", "Measurement", "PowerMon"),
        ".rails": ("PCIE_SLOT_LIMIT", "RailTopology", "topology_for"),
        ".session": (
            "SessionMeasurement",
            "Window",
            "detect_windows",
            "measure_session",
        ),
    },
)

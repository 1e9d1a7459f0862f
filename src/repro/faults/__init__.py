"""Rig fault injection: seeded failure modes for the software twin.

The paper's numbers all flow through a physical rig (PowerMon 2 plus a
PCIe interposer), and real rigs drop samples, desync channels, saturate
ADCs and lose whole runs.  This package defines composable, seeded
fault models (:class:`FaultPlan` + :class:`FaultInjector`) applied at
the measurement boundary -- ground truth stays exact -- and the named
errors (:mod:`repro.faults.errors`) the resilient campaign execution
path retries, validates and quarantines on.  See ``docs/FAULTS.md``.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".errors": (
            "CorruptObservationError",
            "EmptyChannelError",
            "InjectedRunFailureError",
            "RigFaultError",
        ),
        ".injector": ("FaultCounters", "FaultInjector"),
        ".plan": ("FaultPlan",),
    },
)

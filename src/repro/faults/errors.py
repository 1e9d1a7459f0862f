"""Named errors for rig faults and resilient campaign execution.

Every failure mode a real measurement rig exhibits gets its own
exception type, all rooted at :class:`RigFaultError`, so the retry and
quarantine machinery in :mod:`repro.microbench` can catch *exactly*
the fault class -- an assertion failure or a programming error must
still propagate.  The classes that replace previously-generic
``ValueError`` sites keep ``ValueError`` as a base for backward
compatibility.

This module imports nothing from the rest of the package, so the
measurement layer can raise these errors without creating an import
cycle with the injector (which consumes measurement-layer data).
"""

from __future__ import annotations

__all__ = [
    "RigFaultError",
    "InjectedRunFailureError",
    "EmptyChannelError",
    "CorruptObservationError",
]


class RigFaultError(Exception):
    """Base class for every measurement-rig failure mode.

    The resilient execution path retries/quarantines on exactly this
    class; anything else is a bug and propagates.
    """


class InjectedRunFailureError(RigFaultError):
    """A whole benchmark run was lost (rig stall, host crash, ...)."""

    def __init__(self, run: str) -> None:
        self.run = run
        super().__init__(f"run {run!r} failed: injected whole-run rig failure")


class EmptyChannelError(RigFaultError, ValueError):
    """A PowerMon channel captured no samples at all.

    Real rigs produce this when a channel drops every sample of a short
    run (or is simply unplugged); previously the twin raised a bare
    ``ValueError`` from :class:`~repro.measurement.powermon.ChannelReading`
    and nothing upstream could tell an empty channel from a programming
    error.  Subclasses ``ValueError`` so existing ``except ValueError``
    call sites keep working.
    """

    def __init__(self, rail: str, message: str | None = None) -> None:
        self.rail = rail
        super().__init__(
            message
            or f"channel for rail {rail!r} captured no samples (all dropped?)"
        )


class CorruptObservationError(RigFaultError):
    """A run produced a measurement that fails validation.

    Raised by the benchmark runner's per-run validation when the
    measured quantities are non-finite or non-positive -- the signature
    of ADC NaN readings, saturated-to-zero channels, or desync bad
    enough to break the estimator.
    """

    def __init__(self, run: str, reason: str) -> None:
        self.run = run
        self.reason = reason
        super().__init__(f"run {run!r} produced a corrupt measurement: {reason}")

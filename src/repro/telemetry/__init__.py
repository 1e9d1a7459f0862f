"""Structured tracing and metrics for campaign execution.

The paper's evaluation rests on *instrumented* runs -- PowerMon 2
sampling at 1024 Hz while the microbenchmark sweeps execute -- and the
software twin needs the same property for itself: when a campaign is
slow, the question "where did the wall time go?" (calibration?  the
engine?  fitting?  pool overhead?) must be answerable from data, not
guesswork.  This package provides that observability layer:

* :mod:`repro.telemetry.recorder` -- the :class:`Span` /
  :class:`TraceRecorder` API: nested spans with monotonic timestamps.
  The default :data:`NULL_RECORDER` is a no-op whose presence leaves
  every instrumented code path bit-for-bit identical to uninstrumented
  execution.
* :mod:`repro.telemetry.jsonl` -- JSONL serialisation of a campaign's
  trace (one self-describing record per line) with a hand-rolled
  schema validator, so CI can assert a trace file is well formed
  without external dependencies.
* :mod:`repro.telemetry.summary` -- renders a flame-style text
  breakdown of a traced campaign: per-shard span trees with inclusive
  and self times, and the campaign-level accounting (shard time vs
  wall time vs pool overhead).

Instrumented layers: :class:`~repro.machine.engine.Engine` (run /
run_batch), :class:`~repro.microbench.runner.BenchmarkRunner`
(calibrate -> engine -> measure -> validate),
:func:`~repro.microbench.suite.fit_campaign` (per-fit spans) and
:class:`~repro.microbench.campaign.CampaignRunner` (per-shard root
spans, serialised across the process-pool boundary and merged into
:class:`~repro.microbench.campaign.CampaignReport`).
"""

from .recorder import NULL_RECORDER, NullRecorder, SpanRecord, TraceRecorder

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "SpanRecord",
    "TraceRecorder",
]

"""Per-layer self times from the program's JSONL span traces.

A layer's self time is its span's duration minus the part of that
interval its child spans cover, so nested layers are never counted
twice and the self times of one trace add up to its root spans' time.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

from repro.telemetry.jsonl import read_spans
from repro.telemetry.recorder import SpanRecord


#: Span name -> the per-layer self-time metric it feeds.
SELF_TIME_METRICS = {
    "measure": "measurement.measure_s",
    "fit": "core.fit_s",
    "engine": "machine.engine_s",
    "calibrate": "microbench.calibrate_s",
    "engine_batch": "machine.engine_batch_s",
    "governor_batch": "machine.governor_batch_s",
    "cache_lookup": "store.lookup_s",
    "cache_store": "store.put_s",
    "request": "serve.request_s",
    "batch_assemble": "serve.batch_assemble_s",
    "respond": "serve.respond_s",
    "fleet_evaluate": "fleet.evaluate_s",
    "fleet_solve": "fleet.solve_s",
}

#: Span name -> the per-layer count metric it feeds.
COUNT_METRICS = {
    "run": "machine.runs",
    "measure": "measurement.measures",
    "fit": "core.fits",
}


def _covered(lo: float, hi: float, children: Iterable[SpanRecord]) -> float:
    """Length of the union of the children's intervals inside [lo, hi]."""
    clipped = sorted(
        (max(lo, c.start), min(hi, c.start + c.duration)) for c in children
    )
    covered = 0.0
    run_start = run_end = lo
    for start, end in clipped:
        if end <= start:
            continue
        if start > run_end:
            covered += run_end - run_start
            run_start = start
        run_end = max(run_end, end)
    return covered + (run_end - run_start)


def self_times(spans: Sequence[SpanRecord]) -> dict[str, tuple[float, int]]:
    """``{span name: (summed self seconds, span count)}`` for the spans
    of one recorder (one shard of a trace file)."""
    children: dict[int, list[SpanRecord]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    out: dict[str, tuple[float, int]] = {}
    for span in spans:
        end = span.start + span.duration
        own = span.duration - _covered(
            span.start, end, children.get(span.index, ())
        )
        total, count = out.get(span.name, (0.0, 0))
        out[span.name] = (total + own, count + 1)
    return out


def trace_self_times(path: Path) -> dict[str, tuple[float, int]]:
    """Self times of every span in a trace file, summed over its shards."""
    out: dict[str, tuple[float, int]] = {}
    for spans in read_spans(path).values():
        for name, (seconds, count) in self_times(spans).items():
            total, n = out.get(name, (0.0, 0))
            out[name] = (total + seconds, n + count)
    return out


def layer_metrics(
    times: dict[str, tuple[float, int]],
) -> dict[str, tuple[float, str]]:
    """``{metric: (value, unit)}``: the per-layer metrics a set of self
    times provides."""
    out = {}
    for name, (seconds, count) in times.items():
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] = (seconds, "s")
        if name in COUNT_METRICS:
            out[COUNT_METRICS[name]] = (float(count), "count")
    return out

"""Serve telemetry: spans thread through the request path, and the
exported JSONL validates against the campaign trace schema.

The server exports its whole run as one pseudo-shard named "serve", so
the existing validator, reader and flame summary (docs/TELEMETRY.md)
work on service traces with zero schema changes -- asserted here by
round-tripping through the real ``validate_trace_file``/``read_spans``.
"""

from __future__ import annotations

import asyncio

from repro.serve import PredictServer
from repro.telemetry.jsonl import (
    read_spans,
    validate_trace_file,
    write_recorder_trace,
)
from repro.telemetry.recorder import TraceRecorder

from .conftest import post_predict

QUERY = {"kernel": "spmv", "platform": "nuc-gpu", "n": 1e5}


def _run_traced(n_requests: int) -> TraceRecorder:
    recorder = TraceRecorder()

    async def main():
        async with PredictServer(
            port=0, linger_us=2000, recorder=recorder
        ) as server:
            answers = await asyncio.gather(
                *(post_predict(server.port, QUERY) for _ in range(n_requests))
            )
            assert all(status == 200 for status, _ in answers)

    asyncio.run(main())
    return recorder


def test_request_path_spans():
    recorder = _run_traced(n_requests=4)
    names = [record.name for record in recorder.records()]
    # One request + respond span pair per request ...
    assert names.count("request") == 4
    assert names.count("respond") == 4
    # ... batching spans from the batcher and engine underneath.
    assert names.count("batch_assemble") >= 1
    assert "engine_batch" in names


def test_spans_nest_strictly():
    """No span is held across an await: every record's depth/parent
    chain is consistent (the recorder would have raised otherwise),
    and top-level spans never interleave."""
    recorder = _run_traced(n_requests=3)
    for record in recorder.records():
        if record.parent == -1:  # top-level span
            assert record.depth == 0
        else:
            assert record.depth > 0
            assert 0 <= record.parent < record.index


def test_trace_file_round_trip(tmp_path):
    recorder = _run_traced(n_requests=5)
    path = tmp_path / "serve_trace.jsonl"
    lines = write_recorder_trace(path, "serve", recorder, wall_seconds=1.25)
    assert lines > 0
    validate_trace_file(path)  # raises on any schema violation
    spans = read_spans(path)
    assert set(spans) == {"serve"}
    names = {span.name for span in spans["serve"]}
    assert {"request", "respond", "batch_assemble"} <= names

"""Unit tests for the telemetry layer: recorder, JSONL, summary."""

import json
from types import SimpleNamespace

import pytest

from repro.telemetry.jsonl import (
    SCHEMA_VERSION,
    obj_to_span,
    read_spans,
    read_trace,
    span_to_obj,
    trace_bytes,
    validate_record,
    validate_trace_file,
    write_recorder_trace,
    write_trace,
)
from repro.telemetry.recorder import (
    NULL_RECORDER,
    NullRecorder,
    SpanRecord,
    TraceRecorder,
)
from repro.telemetry.summary import (
    aggregate_spans,
    render_shard_summary,
    render_summary,
)


class ManualClock:
    """A deterministic stand-in for ``time.perf_counter``."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


class TestTraceRecorder:
    def test_nested_spans(self):
        clock = ManualClock()
        rec = TraceRecorder(clock=clock)
        with rec.span("outer"):
            clock.advance(1.0)
            with rec.span("inner", kernel="k1", n=3):
                clock.advance(2.0)
            clock.advance(0.5)
        inner, outer = rec.spans  # children close (and record) first
        assert inner.name == "inner"
        assert inner.start == 1.0  # relative to the recorder's epoch
        assert inner.duration == 2.0
        assert inner.depth == 1
        assert inner.parent == outer.index
        assert inner.meta_dict() == {"kernel": "k1", "n": "3"}
        assert outer.name == "outer"
        assert outer.start == 0.0
        assert outer.duration == 3.5
        assert outer.depth == 0
        assert outer.parent == -1

    def test_records_sorted_by_start(self):
        clock = ManualClock()
        rec = TraceRecorder(clock=clock)
        with rec.span("root"):
            with rec.span("a"):
                clock.advance(1.0)
            with rec.span("b"):
                clock.advance(1.0)
        assert [s.name for s in rec.records()] == ["root", "a", "b"]

    def test_span_recorded_when_body_raises(self):
        clock = ManualClock()
        rec = TraceRecorder(clock=clock)
        with pytest.raises(RuntimeError):
            with rec.span("dies"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        (span,) = rec.spans
        assert span.name == "dies"
        assert span.duration == 1.0
        # The stack unwound: the next span is a root again.
        with rec.span("after"):
            pass
        assert rec.spans[-1].parent == -1

    def test_sibling_spans_share_parent(self):
        clock = ManualClock()
        rec = TraceRecorder(clock=clock)
        with rec.span("root"):
            for _ in range(3):
                with rec.span("child"):
                    clock.advance(1.0)
        root = rec.spans[-1]
        children = rec.spans[:-1]
        assert all(c.parent == root.index for c in children)
        assert len({c.index for c in children}) == 3


class TestNullRecorder:
    def test_records_nothing(self):
        rec = NullRecorder()
        with rec.span("ignored", meta="x"):
            pass
        assert rec.spans == []
        assert rec.records() == ()

    def test_disabled_flag(self):
        assert NullRecorder.enabled is False
        assert TraceRecorder.enabled is True

    def test_shared_singleton_is_reentrant(self):
        with NULL_RECORDER.span("a"):
            with NULL_RECORDER.span("b"):
                pass
        assert NULL_RECORDER.spans == []


def _sample_spans():
    return (
        SpanRecord(
            name="shard", start=0.0, duration=4.0, index=0, parent=-1,
            depth=0, meta=(("platform", "gtx-titan"),),
        ),
        SpanRecord(
            name="campaign", start=0.1, duration=3.0, index=1, parent=0,
            depth=1,
        ),
        SpanRecord(
            name="fit", start=3.2, duration=0.7, index=2, parent=0, depth=1,
        ),
    )


def _sample_report():
    spans = _sample_spans()
    shard = SimpleNamespace(
        platform_id="gtx-titan",
        status="ok",
        seed=7,
        wall_seconds=4.1,
        n_runs=25,
        runs_attempted=25,
        runs_failed=0,
        retries=0,
        rejected=0,
        runs_skipped=0,
        calibration_hits=20,
        calibration_misses=5,
        trace_bytes=trace_bytes("gtx-titan", spans),
        spans=spans,
    )
    return SimpleNamespace(
        wall_seconds=4.5,
        shard_seconds=4.1,
        shards=(shard,),
    )


class TestJsonl:
    def test_span_round_trip(self):
        for record in _sample_spans():
            obj = span_to_obj("gtx-titan", record)
            validate_record(obj)
            assert obj_to_span(obj) == record

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        report = _sample_report()
        lines = write_trace(path, report)
        records = read_trace(path)
        assert len(records) == lines
        assert records[0]["type"] == "campaign"
        assert records[0]["schema"] == SCHEMA_VERSION
        # Schema 1 keeps the field; shards run one at a time.
        assert records[0]["workers"] == 1
        counters = {
            r["name"]: r["value"] for r in records if r["type"] == "counter"
        }
        assert counters["n_runs"] == 25.0
        assert counters["calibration_hits"] == 20.0
        spans = read_spans(path)["gtx-titan"]
        assert tuple(spans) == _sample_spans()

    def test_validate_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert write_trace(path, _sample_report()) == validate_trace_file(path)

    def test_trace_bytes_counts_encoded_lines(self):
        spans = _sample_spans()
        size = trace_bytes("gtx-titan", spans)
        encoded = "".join(
            json.dumps(span_to_obj("gtx-titan", s), separators=(",", ":"),
                       sort_keys=True) + "\n"
            for s in spans
        )
        assert size == len(encoded.encode())

    @pytest.mark.parametrize(
        "obj, match",
        [
            ([], "must be an object"),
            ({"type": "nope"}, "unknown record type"),
            ({"type": "counter", "shard": "x", "name": "n"}, "missing field"),
            (
                {"type": "counter", "shard": "x", "name": "n", "value": True},
                "counter.value",
            ),
            (
                {"type": "counter", "shard": "x", "name": "n", "value": "1"},
                "counter.value",
            ),
            (
                {
                    "type": "span", "shard": "x", "index": 0, "parent": -1,
                    "depth": 0, "name": "s", "start": 0.0, "duration": -1.0,
                    "meta": {},
                },
                "non-negative",
            ),
            (
                {
                    "type": "span", "shard": "x", "index": 0, "parent": -2,
                    "depth": 0, "name": "s", "start": 0.0, "duration": 1.0,
                    "meta": {},
                },
                "out of range",
            ),
            (
                {
                    "type": "span", "shard": "x", "index": 0, "parent": -1,
                    "depth": 0, "name": "s", "start": 0.0, "duration": 1.0,
                    "meta": {"k": 3},
                },
                "str to str",
            ),
            (
                {
                    "type": "campaign", "schema": 99, "workers": 1,
                    "wall_seconds": 1.0, "shards": 0,
                },
                "schema version",
            ),
            (
                {
                    "type": "campaign", "schema": SCHEMA_VERSION, "workers": 0,
                    "wall_seconds": 1.0, "shards": 0,
                },
                "workers",
            ),
            (
                {
                    "type": "counter", "shard": "x", "name": "n",
                    "value": float("nan"),
                },
                "finite",
            ),
        ],
    )
    def test_validate_record_rejects(self, obj, match):
        with pytest.raises(ValueError, match=match):
            validate_record(obj)

    def test_file_invariants(self, tmp_path):
        def write_lines(objs):
            path = tmp_path / "bad.jsonl"
            path.write_text("".join(json.dumps(o) + "\n" for o in objs))
            return path

        header = {
            "type": "campaign", "schema": SCHEMA_VERSION, "workers": 1,
            "wall_seconds": 1.0, "shards": 0,
        }
        shard = {
            "type": "shard", "shard": "a", "status": "ok", "seed": 1,
            "wall_seconds": 1.0,
        }
        with pytest.raises(ValueError, match="empty"):
            validate_trace_file(write_lines([]))
        with pytest.raises(ValueError, match="first record"):
            validate_trace_file(write_lines([shard]))
        with pytest.raises(ValueError, match="declares 0 shards"):
            validate_trace_file(write_lines([header, shard]))
        with pytest.raises(ValueError, match="undeclared shard"):
            validate_trace_file(
                write_lines(
                    [header, {"type": "counter", "shard": "ghost",
                              "name": "n", "value": 1.0}]
                )
            )
        with pytest.raises(ValueError, match="not JSON"):
            path = tmp_path / "junk.jsonl"
            path.write_text("{not json}\n")
            read_trace(path)

    def test_duplicate_shards_rejected(self, tmp_path):
        header = {
            "type": "campaign", "schema": SCHEMA_VERSION, "workers": 1,
            "wall_seconds": 1.0, "shards": 2,
        }
        shard = {
            "type": "shard", "shard": "a", "status": "ok", "seed": 1,
            "wall_seconds": 1.0,
        }
        path = tmp_path / "dup.jsonl"
        path.write_text(
            "".join(json.dumps(o) + "\n" for o in [header, shard, shard])
        )
        with pytest.raises(ValueError, match="duplicate shard"):
            validate_trace_file(path)


def _ticking_recorder() -> TraceRecorder:
    """Three spans on a clock that advances 0.25 s per reading."""
    ticks = iter(0.25 * k for k in range(100))
    recorder = TraceRecorder(clock=lambda: next(ticks))
    with recorder.span("request", kernel="spmv"):
        with recorder.span("respond"):
            pass
    with recorder.span("fleet_solve", bins=8):
        pass
    return recorder


#: What the serve and fleet trace writers wrote for ``_ticking_recorder``
#: before they became one function; e2ebench reads these files, so the
#: bytes must not move.
_SERVE_LINES = """\
{"schema":1,"shards":1,"type":"campaign","wall_seconds":1.25,"workers":1}
{"seed":0,"shard":"serve","status":"ok","type":"shard","wall_seconds":1.25}
{"name":"wall_seconds","shard":"serve","type":"counter","value":1.25}
{"depth":0,"duration":0.75,"index":0,"meta":{"kernel":"spmv"},"name":"request","parent":-1,"shard":"serve","start":0.25,"type":"span"}
{"depth":1,"duration":0.25,"index":1,"meta":{},"name":"respond","parent":0,"shard":"serve","start":0.5,"type":"span"}
{"depth":0,"duration":0.25,"index":2,"meta":{"bins":"8"},"name":"fleet_solve","parent":-1,"shard":"serve","start":1.25,"type":"span"}
"""
_FLEET_LINES = """\
{"schema":1,"shards":1,"type":"campaign","wall_seconds":0.75,"workers":1}
{"seed":7,"shard":"fleet","status":"failed","type":"shard","wall_seconds":0.75}
{"name":"wall_seconds","shard":"fleet","type":"counter","value":0.75}
{"depth":0,"duration":0.75,"index":0,"meta":{"kernel":"spmv"},"name":"request","parent":-1,"shard":"fleet","start":0.25,"type":"span"}
{"depth":1,"duration":0.25,"index":1,"meta":{},"name":"respond","parent":0,"shard":"fleet","start":0.5,"type":"span"}
{"depth":0,"duration":0.25,"index":2,"meta":{"bins":"8"},"name":"fleet_solve","parent":-1,"shard":"fleet","start":1.25,"type":"span"}
"""


class TestRecorderTrace:
    def test_serve_bytes(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        lines = write_recorder_trace(
            path, "serve", _ticking_recorder(), wall_seconds=1.25
        )
        assert path.read_text() == _SERVE_LINES
        assert lines == 6 == validate_trace_file(path)

    def test_fleet_bytes(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        write_recorder_trace(
            path,
            "fleet",
            _ticking_recorder(),
            wall_seconds=0.75,
            seed=7,
            status="failed",
        )
        assert path.read_text() == _FLEET_LINES
        assert [s.name for s in read_spans(path)["fleet"]] == [
            "request", "respond", "fleet_solve",
        ]


class TestSummary:
    def test_aggregate_spans_paths(self):
        spans = _sample_spans()
        aggregated = aggregate_spans(spans)
        assert aggregated[("shard",)] == (4.0, 1)
        assert aggregated[("shard", "campaign")] == (3.0, 1)
        assert aggregated[("shard", "fit")] == (0.7, 1)

    def test_aggregate_collapses_repeats(self):
        spans = [
            SpanRecord(name="root", start=0.0, duration=3.0, index=0,
                       parent=-1, depth=0),
        ] + [
            SpanRecord(name="run", start=float(i), duration=1.0, index=i + 1,
                       parent=0, depth=1)
            for i in range(3)
        ]
        aggregated = aggregate_spans(spans)
        assert aggregated[("root", "run")] == (3.0, 3)

    def test_render_shard_summary(self):
        out = render_shard_summary(_sample_report().shards[0])
        assert "shard gtx-titan: ok" in out
        assert "campaign" in out
        assert "fit" in out
        # 3.0s of a 4.1s wall.
        assert "73.2%" in out

    def test_render_shard_summary_without_spans(self):
        shard = SimpleNamespace(
            platform_id="nuc-gpu", status="ok", wall_seconds=1.0,
            n_runs=0, spans=(),
        )
        out = render_shard_summary(shard)
        assert "no spans recorded; run with tracing enabled" in out

    def test_render_shard_summary_failed_shard(self):
        # A failed shard hands back no spans, so the fallback must not
        # suggest tracing was off.
        shard = SimpleNamespace(
            platform_id="nuc-gpu", status="failed", wall_seconds=1.0,
            n_runs=0, spans=(),
        )
        out = render_shard_summary(shard)
        assert "no spans recorded; shard failed" in out
        assert "tracing enabled" not in out

    def test_render_summary(self):
        out = render_summary(_sample_report())
        assert "campaign: 1 shards, 4.500s wall, shard time 4.100s" in out
        assert "efficiency" not in out
        assert "shard gtx-titan" in out

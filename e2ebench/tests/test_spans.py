"""Self-time extraction on hand-built span trees."""

from __future__ import annotations

import pytest

from repro.telemetry.jsonl import write_trace
from repro.telemetry.recorder import SpanRecord

from e2ebench.spans import layer_metrics, self_times, trace_self_times


def span(index: int, parent: int, name: str, start: float, end: float) -> SpanRecord:
    return SpanRecord(
        name=name, start=start, duration=end - start, index=index, parent=parent,
        depth=0 if parent < 0 else 1,
    )


#: shard [0, 10] > fit [1, 4], run [5, 9] > measure [5, 7], engine [7, 8.5]
TREE = [
    span(0, -1, "shard", 0.0, 10.0),
    span(1, 0, "fit", 1.0, 4.0),
    span(2, 0, "run", 5.0, 9.0),
    span(3, 2, "measure", 5.0, 7.0),
    span(4, 2, "engine", 7.0, 8.5),
]


def test_self_time_is_duration_minus_children():
    times = self_times(TREE)
    assert times["shard"] == pytest.approx((3.0, 1))
    assert times["fit"] == pytest.approx((3.0, 1))
    assert times["run"] == pytest.approx((0.5, 1))
    assert times["measure"] == pytest.approx((2.0, 1))
    assert times["engine"] == pytest.approx((1.5, 1))


def test_self_times_of_a_tree_add_up_to_its_root():
    total = sum(seconds for seconds, _ in self_times(TREE).values())
    assert total == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [
        span(0, -1, "request", 0.0, 10.0),
        span(1, 0, "engine", 2.0, 6.0),
        span(2, 0, "engine", 4.0, 8.0),
    ]
    assert self_times(spans)["request"] == pytest.approx((4.0, 1))


def test_children_are_clipped_to_their_parent():
    spans = [
        span(0, -1, "batch_assemble", 0.0, 2.0),
        span(1, 0, "engine_batch", 1.5, 3.0),
    ]
    assert self_times(spans)["batch_assemble"] == pytest.approx((1.5, 1))


def test_repeated_spans_sum_and_count():
    spans = [span(0, -1, "shard", 0.0, 4.0)] + [
        span(i, 0, "measure", float(i - 1), i - 0.5) for i in range(1, 5)
    ]
    assert self_times(spans)["measure"] == pytest.approx((2.0, 4))
    assert self_times(spans)["shard"] == pytest.approx((2.0, 1))


def test_layer_metrics_names_self_times_and_counts():
    metrics = layer_metrics(self_times(TREE))
    assert metrics["core.fit_s"] == pytest.approx((3.0, "s"))
    assert metrics["core.fits"] == (1.0, "count")
    assert metrics["measurement.measure_s"] == pytest.approx((2.0, "s"))
    assert metrics["machine.engine_s"] == pytest.approx((1.5, "s"))
    assert metrics["machine.runs"] == (1.0, "count")
    assert len(metrics) == 6  # shard has no metric; measure has two.


class _Shard:
    def __init__(self, name: str, spans: list[SpanRecord]) -> None:
        self.platform_id = name
        self.status = "ok"
        self.seed = 0
        self.wall_seconds = 10.0
        self.spans = spans


class _Report:
    def __init__(self, shards: list[_Shard]) -> None:
        self.workers = 1
        self.wall_seconds = 10.0
        self.shards = shards


def test_trace_file_self_times_sum_over_shards(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace(path, _Report([_Shard("a", TREE), _Shard("b", TREE)]))
    times = trace_self_times(path)
    assert times["fit"] == pytest.approx((6.0, 2))
    assert times["run"] == pytest.approx((1.0, 2))

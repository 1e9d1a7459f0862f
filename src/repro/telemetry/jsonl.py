"""JSONL trace export: one self-describing record per line.

A trace file is an append-friendly stream of JSON objects, one per
line, each tagged with a ``"type"``:

``campaign``
    Exactly one, first line: ``schema`` (format version), ``workers``
    (always 1: shards run one after another), ``wall_seconds``,
    ``shards``.
``shard``
    One per shard: ``shard`` (platform id), ``status``, ``seed``,
    ``wall_seconds``.
``counter``
    Per-shard metric counters (runs, retries, calibration hits,
    trace bytes, ...): ``shard``, ``name``, ``value``.
``span``
    One closed span: ``shard``, ``index``, ``parent``, ``depth``,
    ``name``, ``start``, ``duration``, ``meta`` (string -> string).

The validator below is hand rolled (no jsonschema dependency) and is
what the CI smoke step runs against a ``--trace`` campaign's output;
the full schema is documented in ``docs/TELEMETRY.md``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterator, Sequence

from .recorder import NULL_RECORDER, SpanRecord, TraceRecorder

__all__ = [
    "SCHEMA_VERSION",
    "span_to_obj",
    "obj_to_span",
    "shard_counters",
    "campaign_records",
    "write_trace",
    "write_recorder_trace",
    "read_trace",
    "read_spans",
    "trace_bytes",
    "validate_record",
    "validate_trace_file",
]

SCHEMA_VERSION = 1

#: Per-shard counters exported from a ``ShardReport`` (attribute order
#: is the export order, so traces diff cleanly).
_SHARD_COUNTER_FIELDS = (
    "n_runs",
    "runs_attempted",
    "runs_failed",
    "retries",
    "rejected",
    "runs_skipped",
    "calibration_hits",
    "calibration_misses",
    "trace_bytes",
    "wall_seconds",
)


def span_to_obj(shard: str, record: SpanRecord) -> dict[str, Any]:
    """One span as its JSONL object."""
    return {
        "type": "span",
        "shard": shard,
        "index": record.index,
        "parent": record.parent,
        "depth": record.depth,
        "name": record.name,
        "start": record.start,
        "duration": record.duration,
        "meta": record.meta_dict(),
    }


def obj_to_span(obj: dict[str, Any]) -> SpanRecord:
    """The inverse of :func:`span_to_obj` (drops the shard tag)."""
    validate_record(obj)
    if obj["type"] != "span":
        raise ValueError(f"not a span record: type={obj['type']!r}")
    return SpanRecord(
        name=obj["name"],
        start=obj["start"],
        duration=obj["duration"],
        index=obj["index"],
        parent=obj["parent"],
        depth=obj["depth"],
        meta=tuple(sorted(obj["meta"].items())),
    )


def _dumps(obj: dict[str, Any]) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def trace_bytes(shard: str, spans: Sequence[SpanRecord]) -> int:
    """Size in bytes of a shard's spans as encoded JSONL lines.

    This is the ``trace_bytes`` counter a shard reports -- how much
    trace it recorded -- computed from the canonical encoding so it is
    deterministic across processes.
    """
    return sum(
        len(_dumps(span_to_obj(shard, record)).encode()) + 1
        for record in spans
    )


def shard_counters(shard_report: Any) -> list[tuple[str, float]]:
    """The exported ``(name, value)`` counters of one shard report.

    Duck-typed on :class:`~repro.microbench.campaign.ShardReport` (no
    import: telemetry stays standalone); unknown fields are skipped so
    older pickled reports still export.
    """
    out = []
    for name in _SHARD_COUNTER_FIELDS:
        value = getattr(shard_report, name, None)
        if value is not None:
            out.append((name, float(value)))
    return out


def campaign_records(report: Any) -> Iterator[dict[str, Any]]:
    """Every JSONL record of one campaign, header first.

    ``report`` is duck-typed on
    :class:`~repro.microbench.campaign.CampaignReport`: it needs
    ``wall_seconds`` and ``shards`` (each shard with ``platform_id``,
    ``status``, ``seed``, ``wall_seconds``, the counter fields, and
    ``spans``).  Schema 1's ``workers`` field is always written as 1.
    """
    yield {
        "type": "campaign",
        "schema": SCHEMA_VERSION,
        "workers": 1,
        "wall_seconds": float(report.wall_seconds),
        "shards": len(report.shards),
    }
    for shard in report.shards:
        yield {
            "type": "shard",
            "shard": shard.platform_id,
            "status": shard.status,
            "seed": int(shard.seed),
            "wall_seconds": float(shard.wall_seconds),
        }
        for name, value in shard_counters(shard):
            yield {
                "type": "counter",
                "shard": shard.platform_id,
                "name": name,
                "value": value,
            }
        for record in getattr(shard, "spans", ()):
            yield span_to_obj(shard.platform_id, record)


def write_trace(path: str | Path, report: Any) -> int:
    """Write a campaign's full trace as JSONL; returns lines written."""
    lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        for obj in campaign_records(report):
            handle.write(_dumps(obj) + "\n")
            lines += 1
    return lines


def write_recorder_trace(
    path: str | Path,
    shard: str,
    recorder: TraceRecorder = NULL_RECORDER,
    *,
    wall_seconds: float,
    seed: int = 0,
    status: str = "ok",
) -> int:
    """Write one recorder's spans as a one-shard trace; returns lines.

    For commands that trace one scope rather than a campaign
    (``archline serve`` writes shard ``"serve"``, ``archline fleet``
    shard ``"fleet"``).  The file keeps the campaign schema, so the
    validator, :func:`read_spans` and the summary read it unchanged.
    Of the shard counter fields only ``wall_seconds`` is set, so it is
    the shard's one counter.
    """
    wall = float(wall_seconds)
    one = SimpleNamespace(
        platform_id=shard,
        status=status,
        seed=seed,
        wall_seconds=wall,
        spans=recorder.records(),
    )
    report = SimpleNamespace(wall_seconds=wall, shards=(one,))
    return write_trace(path, report)


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read and validate every record of a trace file."""
    out = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"line {lineno}: not JSON ({err})") from None
            try:
                validate_record(obj)
            except ValueError as err:
                raise ValueError(f"line {lineno}: {err}") from None
            out.append(obj)
    return out


def read_spans(path: str | Path) -> dict[str, list[SpanRecord]]:
    """The span records of a trace file, grouped by shard, in
    timeline order."""
    grouped: dict[str, list[SpanRecord]] = {}
    for obj in read_trace(path):
        if obj["type"] != "span":
            continue
        grouped.setdefault(obj["shard"], []).append(obj_to_span(obj))
    for spans in grouped.values():
        spans.sort(key=lambda s: (s.start, s.index))
    return grouped


# ----------------------------------------------------------------------
# Validation.
# ----------------------------------------------------------------------

_REQUIRED: dict[str, dict[str, type | tuple[type, ...]]] = {
    "campaign": {
        "schema": int,
        "workers": int,
        "wall_seconds": (int, float),
        "shards": int,
    },
    "shard": {
        "shard": str,
        "status": str,
        "seed": int,
        "wall_seconds": (int, float),
    },
    "counter": {"shard": str, "name": str, "value": (int, float)},
    "span": {
        "shard": str,
        "index": int,
        "parent": int,
        "depth": int,
        "name": str,
        "start": (int, float),
        "duration": (int, float),
        "meta": dict,
    },
}


def _check_finite(obj: dict[str, Any], *names: str) -> None:
    for name in names:
        if not math.isfinite(obj[name]):
            raise ValueError(f"{name} must be finite, got {obj[name]!r}")


def validate_record(obj: Any) -> None:
    """Validate one JSONL record; raises ``ValueError`` with the
    offending field named."""
    if not isinstance(obj, dict):
        raise ValueError(f"record must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind not in _REQUIRED:
        raise ValueError(
            f"unknown record type {kind!r}; expected one of "
            f"{sorted(_REQUIRED)}"
        )
    for name, types in _REQUIRED[kind].items():
        if name not in obj:
            raise ValueError(f"{kind} record missing field {name!r}")
        value = obj[name]
        # bool is an int subclass; never valid where a number is expected.
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(
                f"{kind}.{name} must be "
                f"{types if isinstance(types, type) else types}, "
                f"got {value!r}"
            )
    if kind == "campaign":
        if obj["schema"] != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema version {obj['schema']} "
                f"(this reader understands {SCHEMA_VERSION})"
            )
        if obj["workers"] < 1:
            raise ValueError(f"workers must be >= 1, got {obj['workers']}")
        _check_finite(obj, "wall_seconds")
    elif kind == "shard":
        _check_finite(obj, "wall_seconds")
        if obj["wall_seconds"] < 0:
            raise ValueError("shard wall_seconds must be non-negative")
    elif kind == "counter":
        _check_finite(obj, "value")
    elif kind == "span":
        _check_finite(obj, "start", "duration")
        if obj["duration"] < 0:
            raise ValueError("span duration must be non-negative")
        if obj["index"] < 0 or obj["parent"] < -1 or obj["depth"] < 0:
            raise ValueError("span index/parent/depth out of range")
        for key, value in obj["meta"].items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError(
                    f"span meta must map str to str, got {key!r}: {value!r}"
                )


def validate_trace_file(path: str | Path) -> int:
    """Validate a whole trace file; returns the record count.

    Beyond per-record checks this enforces the file-level invariants:
    the first record is the (single) campaign header, its ``shards``
    count matches the shard records present, and every counter/span
    references a declared shard.
    """
    records = read_trace(path)
    if not records:
        raise ValueError("empty trace file")
    header = records[0]
    if header["type"] != "campaign":
        raise ValueError(
            f"first record must be the campaign header, got "
            f"{header['type']!r}"
        )
    shard_ids = [r["shard"] for r in records if r["type"] == "shard"]
    if len([r for r in records if r["type"] == "campaign"]) != 1:
        raise ValueError("trace must contain exactly one campaign header")
    if len(set(shard_ids)) != len(shard_ids):
        raise ValueError("duplicate shard records")
    if header["shards"] != len(shard_ids):
        raise ValueError(
            f"header declares {header['shards']} shards, file has "
            f"{len(shard_ids)}"
        )
    declared = set(shard_ids)
    for record in records:
        if record["type"] in ("counter", "span"):
            if record["shard"] not in declared:
                raise ValueError(
                    f"{record['type']} references undeclared shard "
                    f"{record['shard']!r}"
                )
    return len(records)

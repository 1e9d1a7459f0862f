"""Flame-style text breakdown of a traced campaign.

Answers the question every slow campaign raises -- *where did the wall
time go?* -- from the spans each shard recorded: calibration vs engine
runs vs measurement vs fitting, plus the campaign-level accounting
(summed shard time vs wall time).  Pure rendering; no recording
happens here.

The tree aggregates spans by *name path* (the chain of span names from
the root), so the 600 ``engine`` spans of a sweep collapse into one
line with a count, and calibration dry-runs (``engine`` under
``calibrate``) stay separate from measured runs (``engine`` under
``run``).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from .recorder import SpanRecord

__all__ = ["aggregate_spans", "render_shard_summary", "render_summary"]


def aggregate_spans(
    spans: Sequence[SpanRecord],
) -> dict[tuple[str, ...], tuple[float, int]]:
    """Aggregate spans by name path: ``{path: (total_seconds, count)}``.

    The path of a span is the tuple of span names from its root down
    to itself, resolved through ``parent`` links.  Orphaned parents
    (never closed, e.g. a crashed shard) terminate the walk at the
    deepest closed ancestor.
    """
    by_index: dict[int, SpanRecord] = {s.index: s for s in spans}
    paths: dict[int, tuple[str, ...]] = {}

    def path_of(record: SpanRecord) -> tuple[str, ...]:
        cached = paths.get(record.index)
        if cached is not None:
            return cached
        parent = by_index.get(record.parent)
        path = (
            (record.name,)
            if parent is None
            else path_of(parent) + (record.name,)
        )
        paths[record.index] = path
        return path

    out: dict[tuple[str, ...], tuple[float, int]] = {}
    for record in spans:
        path = path_of(record)
        total, count = out.get(path, (0.0, 0))
        out[path] = (total + record.duration, count + 1)
    return out


def _render_tree(
    aggregated: Mapping[tuple[str, ...], tuple[float, int]],
    denominator: float,
    indent: str,
) -> list[str]:
    """The aggregated paths as an indented tree, heaviest first."""
    children: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    roots: list[tuple[str, ...]] = []
    for path in aggregated:
        if len(path) == 1:
            roots.append(path)
        else:
            children.setdefault(path[:-1], []).append(path)

    lines: list[str] = []

    def emit(path: tuple[str, ...]) -> None:
        total, count = aggregated[path]
        pct = 100.0 * total / denominator if denominator > 0 else 0.0
        label = indent + "  " * (len(path) - 1) + path[-1]
        suffix = f" ({count}x)" if count > 1 else ""
        lines.append(f"{label:<34}{total:>9.3f}s {pct:>5.1f}%{suffix}")
        kids = children.get(path, [])
        kids.sort(key=lambda p: aggregated[p][0], reverse=True)
        child_total = sum(aggregated[kid][0] for kid in kids)
        for kid in kids:
            emit(kid)
        # Time inside this span not covered by any child span.
        self_time = total - child_total
        if kids and self_time > 0.005 * total:
            label = indent + "  " * len(path) + "(self)"
            pct = 100.0 * self_time / denominator if denominator > 0 else 0.0
            lines.append(f"{label:<34}{self_time:>9.3f}s {pct:>5.1f}%")

    roots.sort(key=lambda p: aggregated[p][0], reverse=True)
    for root in roots:
        emit(root)
    return lines


def render_shard_summary(shard: Any) -> str:
    """One shard's breakdown (duck-typed on ``ShardReport``).

    Percentages are of the shard's reported ``wall_seconds``; the gap
    between the root span total and the wall is shown as
    ``(untraced)`` -- report construction, serialisation, and anything
    else outside the instrumented scopes.
    """
    spans: Sequence[SpanRecord] = getattr(shard, "spans", ()) or ()
    wall = float(shard.wall_seconds)
    head = (
        f"shard {shard.platform_id}: {shard.status}, {wall:.3f}s wall, "
        f"{shard.n_runs} runs"
    )
    if not spans:
        if shard.status == "ok":
            return head + "\n  (no spans recorded; run with tracing enabled)"
        # A shard that raises hands back no report, so its recorder's
        # spans are lost, traced or not.
        return head + f"\n  (no spans recorded; shard {shard.status})"
    aggregated = aggregate_spans(spans)
    lines = [head]
    lines.extend(_render_tree(aggregated, wall, "  "))
    root_total = sum(
        total for path, (total, _) in aggregated.items() if len(path) == 1
    )
    untraced = wall - root_total
    if untraced > 0.005 * wall:
        pct = 100.0 * untraced / wall if wall > 0 else 0.0
        lines.append(f"{'  (untraced)':<34}{untraced:>9.3f}s {pct:>5.1f}%")
    return "\n".join(lines)


def render_summary(report: Any) -> str:
    """The whole campaign's breakdown (duck-typed on
    ``CampaignReport``): a header with the wall and summed shard time,
    then one tree per shard."""
    header = (
        f"campaign: {len(report.shards)} shards, "
        f"{float(report.wall_seconds):.3f}s wall, "
        f"shard time {float(report.shard_seconds):.3f}s"
    )
    parts = [header]
    parts.extend(render_shard_summary(shard) for shard in report.shards)
    return "\n\n".join(parts)

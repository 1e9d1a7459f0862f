"""Span tracing: nested monotonic-clock spans.

Two recorders share one interface.  :class:`TraceRecorder` collects
:class:`SpanRecord` entries (frozen, picklable -- they cross the
campaign's process-pool boundary inside ``ShardReport``).
:class:`NullRecorder` -- the default everywhere -- is a no-op:
``span()`` hands back one shared reusable context manager, so
instrumented code paths cost two attribute lookups and an empty
``with`` block per span.  Neither
recorder touches any random generator, which is what keeps traced and
untraced campaigns bit-for-bit identical (asserted by
``tests/telemetry``).

Timestamps come from ``time.perf_counter`` -- monotonic, so span
durations are immune to wall-clock adjustments -- and are stored
relative to the recorder's construction instant (its *epoch*), which
makes per-shard traces start near zero regardless of process uptime.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

__all__ = [
    "SpanRecord",
    "SpanTable",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
]


@dataclass(frozen=True)
class SpanRecord:
    """One closed span: a named interval on the recorder's timeline.

    ``index`` numbers spans in *opening* order; ``parent`` is the
    ``index`` of the enclosing span (``-1`` for roots).  Records are
    appended as spans *close*, so a parent appears after its children
    in :attr:`TraceRecorder.spans`; consumers that need tree order
    sort by ``start`` or follow ``parent`` links.
    """

    name: str
    start: float  #: seconds since the recorder's epoch (monotonic).
    duration: float  #: seconds.
    index: int  #: opening-order id within the recorder.
    parent: int  #: index of the enclosing span, -1 for roots.
    depth: int  #: nesting depth, 0 for roots.
    meta: tuple[tuple[str, str], ...] = ()  #: small string annotations.

    @property
    def end(self) -> float:
        return self.start + self.duration

    def meta_dict(self) -> dict[str, str]:
        return dict(self.meta)


@dataclass(frozen=True)
class SpanTable:
    """Columnar storage of many spans: one tuple of primitives per field.

    A traced shard records thousands of spans, and shipping them across
    the campaign's process-pool boundary as individual
    :class:`SpanRecord` instances makes the pickle stream pay a class
    reference and object header per span.  Stored as columns the same
    spans pickle as seven flat tuples of interned strings, floats and
    ints -- a fraction of the bytes -- while iteration and indexing
    still hand out :class:`SpanRecord` rows, so every consumer of
    ``ShardReport.spans`` (JSONL export, summaries, tests) is agnostic
    to which representation it got.
    """

    names: tuple[str, ...]
    starts: tuple[float, ...]
    durations: tuple[float, ...]
    indices: tuple[int, ...]
    parents: tuple[int, ...]
    depths: tuple[int, ...]
    metas: tuple[tuple[tuple[str, str], ...], ...]

    @classmethod
    def from_records(cls, records: "Sequence[SpanRecord]") -> "SpanTable":
        return cls(
            names=tuple(r.name for r in records),
            starts=tuple(r.start for r in records),
            durations=tuple(r.duration for r in records),
            indices=tuple(r.index for r in records),
            parents=tuple(r.parent for r in records),
            depths=tuple(r.depth for r in records),
            metas=tuple(r.meta for r in records),
        )

    def __len__(self) -> int:
        return len(self.names)

    def __bool__(self) -> bool:
        return bool(self.names)

    def row(self, i: int) -> SpanRecord:
        return SpanRecord(
            name=self.names[i],
            start=self.starts[i],
            duration=self.durations[i],
            index=self.indices[i],
            parent=self.parents[i],
            depth=self.depths[i],
            meta=self.metas[i],
        )

    def __getitem__(self, i: int) -> SpanRecord:
        if not isinstance(i, int):
            raise TypeError("SpanTable indices must be integers")
        return self.row(range(len(self))[i])

    def __iter__(self) -> Iterator[SpanRecord]:
        for i in range(len(self)):
            yield self.row(i)

    def records(self) -> tuple[SpanRecord, ...]:
        return tuple(self)


class TraceRecorder:
    """Collects nested spans for one traced scope.

    Use one recorder per shard (they are not thread-safe; the campaign
    runner gives every pool worker its own).  ``clock`` is injectable
    for deterministic tests.

    Example
    -------
    >>> rec = TraceRecorder()
    >>> with rec.span("campaign"):
    ...     with rec.span("calibrate", kernel="peak"):
    ...         pass
    >>> [s.name for s in rec.spans]
    ['calibrate', 'campaign']
    """

    #: Cheap guard for call sites that want to skip building span
    #: metadata entirely when tracing is off.
    enabled: bool = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self.spans: list[SpanRecord] = []
        self._stack: list[int] = []  # indices of currently open spans.
        self._next_index = 0

    @contextmanager
    def span(self, name: str, **meta: object) -> Iterator[None]:
        """Open a nested span; it closes (and is recorded) on exit.

        The span is recorded even when the body raises -- a run that
        died mid-measure still shows up in the trace, with the time it
        burned.  Metadata values are stringified (the JSONL schema
        keeps annotations as strings).
        """
        index = self._next_index
        self._next_index += 1
        parent = self._stack[-1] if self._stack else -1
        depth = len(self._stack)
        self._stack.append(index)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._stack.pop()
            self.spans.append(
                SpanRecord(
                    name=name,
                    start=start - self.epoch,
                    duration=end - start,
                    index=index,
                    parent=parent,
                    depth=depth,
                    meta=tuple(
                        (key, str(value)) for key, value in meta.items()
                    ),
                )
            )

    def records(self) -> tuple[SpanRecord, ...]:
        """All closed spans in timeline (start) order."""
        return tuple(sorted(self.spans, key=lambda s: (s.start, s.index)))


class _NullSpan:
    """A reusable, reentrant no-op context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder(TraceRecorder):
    """The zero-overhead default recorder: records nothing.

    Shares :class:`TraceRecorder`'s interface so call sites never
    branch; ``span()`` returns one shared context manager.
    :attr:`spans` stays empty forever.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0)

    def span(self, name: str, **meta: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN


#: The process-wide no-op recorder; instrumented constructors default
#: their ``recorder`` parameter to this.
NULL_RECORDER = NullRecorder()

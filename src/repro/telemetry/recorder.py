"""Span tracing: nested monotonic-clock spans.

Two recorders share one interface.  :class:`TraceRecorder` collects
:class:`SpanRecord` entries (frozen, picklable -- a shard hands them
back inside ``ShardReport``).
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
from typing import Callable, Iterator

__all__ = [
    "SpanRecord",
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


class TraceRecorder:
    """Collects nested spans for one traced scope.

    Use one recorder per shard (they are not thread-safe; the campaign
    runner gives every shard its own).  ``clock`` is injectable for
    deterministic tests.

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

"""The request-coalescing core of the predict service.

Concurrent in-flight requests are funnelled through one queue and
drained by a single dispatcher coroutine under a two-knob policy:

``max_batch``
    Hard ceiling on how many requests one assembly may gather.
``linger_us``
    The longest the dispatcher keeps the window open for more after
    the *first* request of an assembly arrives.  Zero means "whatever
    is already queued" -- still wider than one under load, since
    requests pile up while the previous batch computes.

The window also closes early, once the assembly holds a request from
every open connection.  The server registers each connection with
:meth:`Batcher.connection_opened` / :meth:`Batcher.connection_closed`
and answers each one in strict request/response alternation, so a
connection has at most one request in the batcher; once every open
connection is in, only a new connection could add a rider, and
waiting out the window would delay the whole assembly for nothing.
A standalone batcher with no connections registered lingers for the
full window.  :class:`BatchStats` counts why each assembly closed.

Each assembly is grouped by target engine (requests for different
platforms/caps/theta sources coalesce independently) and every group
executes as **one** :meth:`~repro.machine.engine.Engine.run_batch`
call -- the vectorised path -- so service throughput scales with batch
width rather than request count.  The engine guarantees (and the
differential tests re-assert) that with noise off ``run_batch`` agrees
with per-kernel :meth:`~repro.machine.engine.Engine.run` bit-for-bit,
which is what keeps coalescing invisible to clients.

Failure containment: a request whose future was abandoned (client
disconnected mid-flight) is simply skipped at completion time -- the
batch it rode in completes for everyone else.  If a whole group's
``run_batch`` raises, the group degrades to per-kernel scalar
execution so only the offending request fails; its neighbours still
get answers.

Telemetry: the dispatcher records a ``batch_assemble`` span per
assembly (meta: width, groups) strictly *before* the engines' own
``engine_batch`` spans, and never holds a span across an ``await`` --
:class:`~repro.telemetry.recorder.TraceRecorder` nesting relies on
strict LIFO open/close, which interleaved coroutines would violate.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from ..machine.kernel import KernelSpec
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder

__all__ = ["BatchStats", "Batcher"]

#: Why an assembly closed: ``full`` (``max_batch`` requests),
#: ``all_in`` (a request from every open connection) or ``deadline``
#: (the linger window expired, or a shutdown flushed it).
CLOSE_REASONS = ("full", "all_in", "deadline")


@dataclass
class BatchStats:
    """Width/volume counters of one batcher's lifetime."""

    batches: int = 0  #: assemblies dispatched.
    batched_requests: int = 0  #: requests summed over assemblies.
    engine_batches: int = 0  #: run_batch calls (one per engine group).
    max_width: int = 0  #: widest single assembly.
    scalar_fallbacks: int = 0  #: groups degraded to per-kernel runs.
    #: assemblies by close reason (:data:`CLOSE_REASONS`); the counts
    #: sum to ``batches``.
    closed: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(CLOSE_REASONS, 0)
    )

    @property
    def mean_width(self) -> float:
        """Mean achieved batch width (requests per assembly)."""
        if self.batches == 0:
            return 0.0
        return self.batched_requests / self.batches

    def as_dict(self) -> dict[str, Any]:
        return {
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "engine_batches": self.engine_batches,
            "mean_width": self.mean_width,
            "max_width": self.max_width,
            "scalar_fallbacks": self.scalar_fallbacks,
            "closed": dict(self.closed),
        }


@dataclass(frozen=True)
class _Pending:
    """One queued request: target engine, kernel, completion future."""

    engine: Any  #: duck-typed on Engine (run_batch / run).
    kernel: KernelSpec
    future: asyncio.Future


_SHUTDOWN = object()
#: Queued when a connection closes, so a lingering assembly re-checks
#: whether every connection still open is in.
_RECOUNT = object()


class Batcher:
    """Coalesces concurrent submissions into vectorised engine calls.

    Start with :meth:`start` (spawns the dispatcher task), submit with
    :meth:`submit`, and :meth:`stop` to drain: everything already
    queued is dispatched in final assemblies before the task exits.
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        linger_us: int = 1000,
        recorder: TraceRecorder | None = NULL_RECORDER,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if linger_us < 0:
            raise ValueError(f"linger_us must be >= 0, got {linger_us}")
        self.max_batch = max_batch
        self.linger_us = linger_us
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.stats = BatchStats()
        #: connections that may submit (see the module docstring); 0
        #: for a standalone batcher, which lingers the full window.
        self.open_connections = 0
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None

    def connection_opened(self) -> None:
        """Register a connection that may have one request in flight."""
        self.open_connections += 1

    def connection_closed(self) -> None:
        """Unregister a connection; wakes a lingering assembly that may
        now hold a request from every connection still open."""
        self.open_connections -= 1
        self._queue.put_nowait(_RECOUNT)

    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("batcher already started")
        self._task = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="batcher-dispatch"
        )

    async def stop(self) -> None:
        """Drain the queue, flush pending assemblies, stop the task."""
        if self._task is None:
            return
        self._queue.put_nowait(_SHUTDOWN)
        await self._task
        self._task = None
        # Submissions can race the sentinel (enqueued after it but
        # before the dispatcher drained): flush them here so every
        # accepted submit completes rather than hanging its caller.
        self._flush_tail()

    async def submit(
        self, engine: Any, kernel: KernelSpec
    ) -> tuple[Any, int]:
        """Queue one request; returns ``(RunResult, batch_width)``.

        ``batch_width`` is the size of the assembly the request rode
        in.  Raises whatever the engine raised for this kernel.
        """
        if self._task is None:
            raise RuntimeError("batcher is not running")
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_Pending(engine, kernel, future))
        return await future

    # ------------------------------------------------------------------
    # Dispatcher.
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        linger_seconds = self.linger_us / 1e6
        while True:
            head = await self._queue.get()
            if head is _SHUTDOWN:
                self._flush_tail()
                return
            if head is _RECOUNT:
                continue
            batch = [head]
            stopping = False
            reason = "deadline"
            deadline = loop.time() + linger_seconds
            while True:
                if len(batch) >= self.max_batch:
                    reason = "full"
                    break
                if 0 < self.open_connections <= len(batch):
                    reason = "all_in"
                    break
                remaining = deadline - loop.time()
                if remaining <= 0:
                    # Linger expired: scoop whatever is already queued,
                    # but wait no further.
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                else:
                    try:
                        item = await asyncio.wait_for(
                            self._queue.get(), timeout=remaining
                        )
                    except asyncio.TimeoutError:
                        break
                if item is _SHUTDOWN:
                    stopping = True
                    break
                if item is not _RECOUNT:
                    batch.append(item)
            self._execute(batch, reason)
            if stopping:
                self._flush_tail()
                return

    def _flush_tail(self) -> None:
        """Dispatch whatever raced in behind the shutdown sentinel, so
        every accepted submission completes before the task exits."""
        tail: list[_Pending] = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not _SHUTDOWN and item is not _RECOUNT:
                tail.append(item)
        for start in range(0, len(tail), self.max_batch):
            self._execute(tail[start:start + self.max_batch], "deadline")

    def _execute(self, batch: list[_Pending], reason: str) -> None:
        """Run one assembly that closed for ``reason``: group by engine,
        one run_batch per group.

        Entirely synchronous (no awaits), so its telemetry spans nest
        strictly and results land on futures atomically with respect to
        the event loop.
        """
        groups: dict[int, list[_Pending]] = {}
        order: list[Any] = []
        with self.recorder.span("batch_assemble", width=len(batch)):
            for item in batch:
                key = id(item.engine)
                if key not in groups:
                    groups[key] = []
                    order.append(item.engine)
                groups[key].append(item)
        stats = self.stats
        stats.batches += 1
        stats.batched_requests += len(batch)
        stats.max_width = max(stats.max_width, len(batch))
        stats.closed[reason] += 1
        for engine in order:
            items = groups[id(engine)]
            self._run_group(engine, items, width=len(batch))

    def _run_group(
        self, engine: Any, items: list[_Pending], *, width: int
    ) -> None:
        kernels = [item.kernel for item in items]
        try:
            result = engine.run_batch(kernels)
        except (ValueError, KeyError, ArithmeticError):
            # One bad kernel must not fail its neighbours: degrade the
            # group to per-kernel scalar runs and fail only offenders.
            self.stats.scalar_fallbacks += 1
            for item in items:
                try:
                    scalar = engine.run(item.kernel)
                except (ValueError, KeyError, ArithmeticError) as err:
                    self._complete_error(item.future, err)
                else:
                    self._complete(item.future, scalar, width)
            return
        self.stats.engine_batches += 1
        for i, item in enumerate(items):
            self._complete(item.future, result.result(i), width)

    @staticmethod
    def _complete(future: asyncio.Future, result: Any, width: int) -> None:
        # An abandoned future (client disconnected, handler cancelled)
        # is already done; skipping it keeps the batch alive for the
        # rest.
        if not future.done():
            future.set_result((result, width))

    @staticmethod
    def _complete_error(future: asyncio.Future, err: Exception) -> None:
        if not future.done():
            future.set_exception(err)

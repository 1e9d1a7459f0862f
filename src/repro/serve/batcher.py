"""The request-coalescing core of the predict service.

Requests join one open *assembly*, which the caller closes and runs
synchronously -- there is no queue and no dispatcher task -- under a
two-knob policy:

``max_batch``
    Hard ceiling on how many requests one assembly may gather: the
    :meth:`Batcher.submit` that fills it runs it.
``linger_us``
    The longest an assembly stays open for more after its *first*
    request arrives: one event-loop timer per assembly.  Zero means
    "whatever is submitted before the loop's next turn".

The window also closes early, once the assembly holds a request from
every open connection.  The server registers each connection with
:meth:`Batcher.connection_opened` / :meth:`Batcher.connection_closed`
and answers each one in strict request/response alternation, so a
connection has at most one request in the batcher; once every open
connection is in, only a new connection could add a rider, and
waiting out the window would delay the whole assembly for nothing.
The submission that completes the set runs the assembly, and so does
a connection closing while it lingers.  A standalone batcher with no
connections registered lingers for the full window.
:class:`BatchStats` counts why each assembly closed.

Each assembly is grouped by target engine (requests for different
platforms/caps/theta sources coalesce independently), and each group
is one pass of the engine's vectorised path inside one
``engine_batch`` span: :meth:`~repro.machine.engine.Engine.physics`
once over the group, then every row whose capped closed-form time
exceeds ``max_simulated_seconds`` is refused as a typed 400
``query_too_large`` (it still rides the assembly, so it counts in the
width and the stats), and :meth:`~repro.machine.engine.Engine.execute`
runs the remaining rows from the same arrays.  The engine guarantees
(and the differential tests re-assert) that with noise off this
agrees with per-kernel :meth:`~repro.machine.engine.Engine.run`
bit-for-bit, which is what keeps coalescing invisible to clients.
Each request's future completes with ``(batch, row, width)``: the
:class:`~repro.machine.engine.BatchResult`, its row in it, and the
assembly's width.

Failure containment: a request whose future was abandoned (client
disconnected mid-flight) is simply skipped at completion time -- the
batch it rode in completes for everyone else.  If a whole group's pass
raises, each of its kernels reruns as a group of its own (width 1),
so only the offending request fails; its neighbours still get
answers.

Telemetry: each assembly records a ``batch_assemble`` span (meta:
width) strictly *before* its groups' ``engine_batch`` spans.  An
assembly runs inside one synchronous call, so its spans nest strictly
(:class:`~repro.telemetry.recorder.TraceRecorder` nesting relies on
strict LIFO open/close).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..machine.kernel import KernelSpec
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .protocol import ProtocolError

__all__ = ["BatchStats", "Batcher"]

#: Why an assembly closed: ``full`` (``max_batch`` requests),
#: ``all_in`` (a request from every open connection) or ``deadline``
#: (the linger window expired, or a shutdown flushed it).
CLOSE_REASONS = ("full", "all_in", "deadline")

#: What an engine raises for a kernel it cannot run.
_ENGINE_ERRORS = (ValueError, KeyError, ArithmeticError)


@dataclass
class BatchStats:
    """Width/volume counters of one batcher's lifetime."""

    batches: int = 0  #: assemblies dispatched.
    batched_requests: int = 0  #: requests summed over assemblies.
    engine_batches: int = 0  #: engine groups run in one pass each.
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


class _Pending(NamedTuple):
    """One submitted request: target engine, kernel, completion future."""

    engine: Any  #: duck-typed on Engine (physics / execute).
    kernel: KernelSpec
    future: asyncio.Future


class Batcher:
    """Coalesces concurrent submissions into vectorised engine calls.

    :meth:`start` binds it to the running loop, :meth:`submit` returns
    a future, and :meth:`stop` runs the open assembly; submitting
    after it raises.
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        linger_us: int = 1000,
        max_simulated_seconds: float = math.inf,
        recorder: TraceRecorder | None = NULL_RECORDER,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if linger_us < 0:
            raise ValueError(f"linger_us must be >= 0, got {linger_us}")
        self.max_batch = max_batch
        self.linger_us = linger_us
        self.max_simulated_seconds = max_simulated_seconds
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.stats = BatchStats()
        #: connections that may submit (see the module docstring); 0
        #: for a standalone batcher, which lingers the full window.
        self.open_connections = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._assembly: list[_Pending] = []
        self._deadline: asyncio.TimerHandle | None = None

    def connection_opened(self) -> None:
        """Register a connection that may have one request in flight."""
        self.open_connections += 1

    def connection_closed(self) -> None:
        """Unregister a connection; runs a lingering assembly that now
        holds a request from every connection still open."""
        self.open_connections -= 1
        if self._assembly and 0 < self.open_connections <= len(
            self._assembly
        ):
            self._close("all_in")

    async def start(self) -> None:
        if self._loop is not None:
            raise RuntimeError("batcher already started")
        self._loop = asyncio.get_running_loop()

    async def stop(self) -> None:
        """Run the open assembly, so every accepted submission
        completes, and refuse further submissions."""
        self._close("deadline")
        self._loop = None

    def submit(self, engine: Any, kernel: KernelSpec) -> asyncio.Future:
        """Add one request to the open assembly, running the assembly
        if that fills it or brings every open connection in.

        The future resolves to ``(batch, row, width)``: the group's
        :class:`~repro.machine.engine.BatchResult`, the request's row
        in it and the size of the assembly it rode in.  It raises what
        the engine raised for this kernel, or a ``query_too_large``
        :class:`~repro.serve.protocol.ProtocolError`.
        """
        loop = self._loop
        if loop is None:
            raise RuntimeError("batcher is not running")
        future = loop.create_future()
        assembly = self._assembly
        assembly.append(_Pending(engine, kernel, future))
        if len(assembly) >= self.max_batch:
            self._close("full")
        elif 0 < self.open_connections <= len(assembly):
            self._close("all_in")
        elif len(assembly) == 1:
            self._deadline = loop.call_later(
                self.linger_us / 1e6, self._close, "deadline"
            )
        return future

    # ------------------------------------------------------------------
    # Running an assembly.
    # ------------------------------------------------------------------

    def _close(self, reason: str) -> None:
        """Run the open assembly, which closed for ``reason``: group by
        engine, one pass per group.

        Entirely synchronous, so its telemetry spans nest strictly and
        results land on futures atomically with respect to the event
        loop.
        """
        assembly, self._assembly = self._assembly, []
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        if not assembly:
            return
        groups: dict[int, list[_Pending]] = {}
        with self.recorder.span("batch_assemble", width=len(assembly)):
            for item in assembly:
                groups.setdefault(id(item.engine), []).append(item)
        stats = self.stats
        stats.batches += 1
        stats.batched_requests += len(assembly)
        stats.max_width = max(stats.max_width, len(assembly))
        stats.closed[reason] += 1
        for items in groups.values():
            try:
                self._run_group(items, len(assembly))
            except _ENGINE_ERRORS:
                # One bad kernel must not fail its neighbours: rerun
                # each kernel as a group of its own and fail only
                # offenders.
                stats.scalar_fallbacks += 1
                for item in items:
                    try:
                        self._run_group([item], len(assembly))
                    except Exception as err:  # this kernel's own failure
                        self._complete_error(item.future, err)
            except Exception as err:  # no kernel's fault: fail the group
                # rather than leave its submitters waiting forever.
                for item in items:
                    self._complete_error(item.future, err)
            else:
                stats.engine_batches += 1

    def _run_group(self, items: list[_Pending], width: int) -> None:
        """One engine's share of an assembly: one physics pass, the
        refusals, then one execution of the remaining rows."""
        engine = items[0].engine
        limit = self.max_simulated_seconds
        with self.recorder.span("engine_batch", n=len(items)):
            physics = engine.physics([item.kernel for item in items])
            ideal = physics.ideal_time.tolist()
            keep = [i for i, seconds in enumerate(ideal) if not seconds > limit]
            if len(keep) < len(items):
                physics = physics.take(keep)
            batch = engine.execute(physics) if keep else None
        rows = iter(range(len(keep)))
        for item, seconds in zip(items, ideal):
            if seconds > limit:
                self._complete_error(
                    item.future,
                    ProtocolError(
                        400,
                        "query_too_large",
                        f"kernel needs {seconds:.3g} simulated seconds, "
                        f"over the {limit:g} s service limit",
                    ),
                )
            else:
                self._complete(item.future, (batch, next(rows), width))

    @staticmethod
    def _complete(future: asyncio.Future, answer: tuple) -> None:
        # An abandoned future (client disconnected, handler cancelled)
        # is already done; skipping it keeps the batch alive for the
        # rest.
        if not future.done():
            future.set_result(answer)

    @staticmethod
    def _complete_error(future: asyncio.Future, err: Exception) -> None:
        if not future.done():
            future.set_exception(err)

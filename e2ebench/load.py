"""Closed- and open-loop load over a fixed set of keep-alive connections.

Both loops run in the benchmark's one event loop and never open more
connections than they are handed (at most ``nproc``).  The open loop
issues request ``i`` at ``t0 + i / rate`` whatever happened to earlier
requests; a request that finds every connection busy waits for one,
and its latency is measured from its *due* time, so a stall is charged
to every request it delays.  How late the generator itself issued each
request is recorded separately: when that lateness exceeds
:data:`LATE_LIMIT_S` the phase measured the generator, not the server,
and is marked invalid.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence

#: Latency recorded for a failed request: it misses any limit.
FAILED = math.inf

#: The open loop is valid only while its p99 generator lateness stays
#: under this many seconds.  An epoll loop rounds timer wake-ups up to
#: whole milliseconds, so 1-2 ms is the floor; beyond 5 ms (1.5 arrival
#: gaps at 300 req/s) the generator, not the server, shaped the tail.
LATE_LIMIT_S = 0.005

#: ``send(connection, query) -> ok`` issues one request.
Send = Callable[[Any, Any], Awaitable[bool]]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, ``q`` in (0, 100]; failed
    requests (:data:`FAILED`) sort last."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


@dataclass
class OpenLoopBook:
    """Due-time accounting of one open-loop phase (seconds)."""

    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    failures: int = 0

    def issued(self, due: float, now: float) -> None:
        self.lateness.append(max(0.0, now - due))

    def completed(self, due: float, now: float, ok: bool) -> None:
        self.latencies.append(now - due if ok else FAILED)
        self.failures += not ok

    def latency(self, q: float) -> float:
        return percentile(self.latencies, q)

    def late(self, q: float) -> float:
        return percentile(self.lateness, q)

    @property
    def valid(self) -> bool:
        """The generator kept to its schedule and the tail is finite."""
        return self.late(99.0) <= LATE_LIMIT_S and math.isfinite(
            self.latency(90.0)
        )


async def open_loop(
    send: Send,
    queries: Sequence[Any],
    connections: Sequence[Any],
    *,
    rate: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[Any]] = asyncio.sleep,
) -> OpenLoopBook:
    """Offer ``queries`` at ``rate`` per second over ``connections``."""
    free: asyncio.Queue = asyncio.Queue()
    for conn in connections:
        free.put_nowait(conn)
    book = OpenLoopBook()

    async def one(query: Any, due: float) -> None:
        conn = await free.get()
        try:
            ok = await send(conn, query)
        finally:
            free.put_nowait(conn)
        book.completed(due, clock(), ok)

    tasks = []
    t0 = clock()
    for i, query in enumerate(queries):
        due = t0 + i / rate
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        book.issued(due, clock())
        tasks.append(asyncio.ensure_future(one(query, due)))
    await asyncio.gather(*tasks)
    return book


async def closed_loop(
    send: Send,
    queries: Sequence[Any],
    connections: Sequence[Any],
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[float, int]:
    """Send ``queries`` back to back, one in flight per connection;
    returns ``(wall seconds, failed requests)``."""
    pending = iter(queries)
    failures = 0

    async def client(conn: Any) -> None:
        nonlocal failures
        for query in pending:
            failures += not await send(conn, query)

    t0 = clock()
    await asyncio.gather(*(client(conn) for conn in connections))
    return clock() - t0, failures

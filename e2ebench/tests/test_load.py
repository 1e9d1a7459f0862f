"""Due-time latency accounting of the load loops, on a virtual clock."""

from __future__ import annotations

import asyncio
import heapq
import math

import pytest

from e2ebench.load import (
    FAILED,
    LATE_LIMIT_S,
    OpenLoopBook,
    closed_loop,
    open_loop,
    percentile,
)


class VirtualClock:
    """Simulated time for coroutines: ``sleep`` parks the caller until
    :meth:`run` advances the clock to its wake-up time."""

    def __init__(self, oversleep: float = 0.0) -> None:
        self.now = 0.0
        self.oversleep = oversleep  #: extra delay on every wake-up.
        self._timers: list[tuple[float, int, asyncio.Future]] = []
        self._seq = 0

    def clock(self) -> float:
        return self.now

    async def sleep(self, delay: float) -> None:
        future = asyncio.get_running_loop().create_future()
        wake = self.now + max(delay, 0.0) + self.oversleep
        heapq.heappush(self._timers, (wake, self._seq, future))
        self._seq += 1
        await future

    def run(self, coro):
        async def main():
            task = asyncio.ensure_future(coro)
            while not task.done():
                for _ in range(50):  # let every runnable task reach a sleep.
                    await asyncio.sleep(0)
                if task.done():
                    break
                wake, _, future = heapq.heappop(self._timers)
                self.now = max(self.now, wake)
                future.set_result(None)
            return task.result()

        return asyncio.run(main())


def fake_service(vclock: VirtualClock, service: dict[int, tuple[float, bool]]):
    """``send`` that takes ``service[query] = (seconds, ok)`` of virtual time."""

    async def send(conn, query):
        seconds, ok = service[query]
        await vclock.sleep(seconds)
        return ok

    return send


def test_percentile_is_nearest_rank_with_failures_last():
    values = [0.004, FAILED, 0.001, 0.003, 0.002]
    assert percentile(values, 20) == 0.001
    assert percentile(values, 50) == 0.003
    assert percentile(values, 80) == 0.004
    assert percentile(values, 90) == FAILED
    with pytest.raises(ValueError):
        percentile([], 50)


def test_open_loop_charges_a_stall_to_every_request_it_delays():
    # 100 req/s over one connection: requests are due every 10 ms.
    # Request 1 stalls for 35 ms; 2 and 3 wait behind it, 4 fails.
    vclock = VirtualClock()
    service = {0: (0.001, True), 1: (0.035, True), 2: (0.001, True),
               3: (0.001, True), 4: (0.001, False)}
    book = vclock.run(
        open_loop(fake_service(vclock, service), list(service), ["conn"],
                  rate=100.0, clock=vclock.clock, sleep=vclock.sleep)
    )
    assert book.latencies[:4] == pytest.approx([0.001, 0.035, 0.026, 0.017])
    assert book.latencies[4] == FAILED
    assert book.failures == 1
    # Timed from when they were sent, requests 2 and 3 would both
    # read 1 ms; from their due times they read 26 and 17 ms.
    assert book.latency(50) == pytest.approx(0.026)
    assert book.latency(90) == FAILED
    assert book.lateness == [0.0] * 5
    assert not book.valid  # the failed request makes the p90 infinite.


def test_open_loop_never_waits_for_a_connection_before_issuing():
    vclock = VirtualClock()
    service = {i: (0.050, True) for i in range(4)}
    book = vclock.run(
        open_loop(fake_service(vclock, service), list(service), ["a", "b"],
                  rate=100.0, clock=vclock.clock, sleep=vclock.sleep)
    )
    # Two connections, 50 ms service, 10 ms arrivals: request 2 is due
    # at 20 ms and starts at 50 ms when "a" frees up.
    assert book.latencies == pytest.approx([0.050, 0.050, 0.080, 0.080])
    assert book.lateness == [0.0] * 4
    assert book.valid


def test_a_late_generator_marks_the_phase_invalid():
    vclock = VirtualClock(oversleep=2 * LATE_LIMIT_S)
    service = {i: (0.001, True) for i in range(5)}
    book = vclock.run(
        open_loop(fake_service(vclock, service), list(service), ["conn"],
                  rate=10.0, clock=vclock.clock, sleep=vclock.sleep)
    )
    assert book.failures == 0
    assert book.late(99) == pytest.approx(2 * LATE_LIMIT_S)
    assert not book.valid


def test_book_counts_lateness_only_when_behind_schedule():
    book = OpenLoopBook()
    book.issued(due=1.0, now=0.999)
    book.issued(due=2.0, now=2.003)
    book.completed(due=2.0, now=2.010, ok=True)
    assert book.lateness == pytest.approx([0.0, 0.003])
    assert book.latencies == pytest.approx([0.010])


def test_closed_loop_counts_failures_and_wall_time():
    vclock = VirtualClock()
    service = {i: (0.010, i != 3) for i in range(6)}
    wall, failures = vclock.run(
        closed_loop(fake_service(vclock, service), list(service), ["a", "b"],
                    clock=vclock.clock)
    )
    assert failures == 1
    assert wall == pytest.approx(0.030)
    assert math.isfinite(wall)

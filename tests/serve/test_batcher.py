"""Batcher unit tests: coalescing policy and failure containment.

Driven with a duck-typed fake engine so the policy (width ceilings,
engine grouping, per-kernel fallback, abandoned-future survival) is
asserted without physics in the way; the real-engine bit-identity
property lives in test_differential.py.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.machine.kernel import DRAM, KernelSpec
from repro.serve.batcher import Batcher
from repro.telemetry.recorder import TraceRecorder


def _kernel(name: str = "k", flops: float = 1e6) -> KernelSpec:
    return KernelSpec(name=name, flops=flops, traffic={DRAM: 1e6})


class _FakePhysics:
    """What the batcher reads of a physics pass: the kernels' ideal
    times (all zero, so none is refused) and a row selection."""

    def __init__(self, kernels):
        self.kernels = list(kernels)
        self.ideal_time = np.zeros(len(self.kernels))

    def take(self, rows):
        return _FakePhysics([self.kernels[i] for i in rows])


class _FakeBatchResult:
    def __init__(self, results):
        self._results = results

    def result(self, i):
        return self._results[i]


class _FakeEngine:
    """Duck-typed engine with the physics/execute split: answers with
    (tag, kernel name) tuples and keeps a log of the batch widths it
    executed."""

    def __init__(self, tag: str, poison: str | None = None):
        self.tag = tag
        self.poison = poison  #: kernel name whose physics raises.
        self.batch_widths: list[int] = []

    def physics(self, kernels):
        if self.poison is not None and any(
            k.name == self.poison for k in kernels
        ):
            raise ValueError(f"poisoned kernel {self.poison}")
        return _FakePhysics(kernels)

    def execute(self, physics):
        self.batch_widths.append(len(physics.kernels))
        return _FakeBatchResult([(self.tag, k.name) for k in physics.kernels])


async def _submit(batcher: Batcher, engine, kernel: KernelSpec):
    """One submission, answered as ``(result, width)``."""
    batch, row, width = await batcher.submit(engine, kernel)
    return batch.result(row), width


def test_concurrent_submissions_coalesce():
    engine = _FakeEngine("a")

    async def main():
        batcher = Batcher(max_batch=16, linger_us=5000)
        await batcher.start()
        try:
            results = await asyncio.gather(
                *(_submit(batcher, engine, _kernel(f"k{i}")) for i in range(8))
            )
        finally:
            await batcher.stop()
        return results

    results = asyncio.run(main())
    assert [r for r, _ in results] == [("a", f"k{i}") for i in range(8)]
    # All eight rode one assembly: every reported width is 8 and the
    # engine saw a single vectorised call.
    assert {width for _, width in results} == {8}
    assert engine.batch_widths == [8]


def test_max_batch_is_a_hard_ceiling():
    engine = _FakeEngine("a")

    async def main():
        batcher = Batcher(max_batch=4, linger_us=50_000)
        await batcher.start()
        try:
            results = await asyncio.gather(
                *(_submit(batcher, engine, _kernel(f"k{i}")) for i in range(10))
            )
        finally:
            await batcher.stop()
        return results

    results = asyncio.run(main())
    assert len(results) == 10
    assert all(width <= 4 for _, width in results)
    assert all(w <= 4 for w in engine.batch_widths)
    assert sum(engine.batch_widths) == 10


def test_assemblies_group_by_engine():
    """One assembly, two target engines: one run_batch per engine, and
    reported widths count the whole assembly (traffic, not group)."""
    a, b = _FakeEngine("a"), _FakeEngine("b")

    async def main():
        batcher = Batcher(max_batch=16, linger_us=5000)
        await batcher.start()
        try:
            results = await asyncio.gather(
                _submit(batcher, a, _kernel("k0")),
                _submit(batcher, b, _kernel("k1")),
                _submit(batcher, a, _kernel("k2")),
                _submit(batcher, b, _kernel("k3")),
            )
        finally:
            await batcher.stop()
        return results

    results = asyncio.run(main())
    assert a.batch_widths == [2]
    assert b.batch_widths == [2]
    assert {width for _, width in results} == {4}
    assert [r for r, _ in results] == [
        ("a", "k0"), ("b", "k1"), ("a", "k2"), ("b", "k3"),
    ]


def test_poisoned_kernel_fails_alone():
    """A group whose pass raises reruns each kernel as a width-1 batch:
    the offender's submit raises, its neighbours still get answers."""
    engine = _FakeEngine("a", poison="bad")

    async def main():
        batcher = Batcher(max_batch=16, linger_us=5000)
        await batcher.start()
        try:
            return await asyncio.gather(
                _submit(batcher, engine, _kernel("k0")),
                _submit(batcher, engine, _kernel("bad")),
                _submit(batcher, engine, _kernel("k2")),
                return_exceptions=True,
            )
        finally:
            await batcher.stop()

    ok0, err, ok2 = asyncio.run(main())
    assert ok0[0] == ("a", "k0")
    assert ok2[0] == ("a", "k2")
    assert isinstance(err, ValueError)
    assert engine.batch_widths == [1, 1]


def test_abandoned_future_does_not_kill_the_batch():
    """A submitter cancelled mid-flight (client disconnect) is skipped
    at completion time; the other riders still get results."""
    engine = _FakeEngine("a")

    async def main():
        batcher = Batcher(max_batch=16, linger_us=20_000)
        await batcher.start()
        try:
            doomed = asyncio.ensure_future(
                _submit(batcher, engine, _kernel("gone"))
            )
            survivor = asyncio.ensure_future(
                _submit(batcher, engine, _kernel("kept"))
            )
            await asyncio.sleep(0)  # both queued, linger window open
            doomed.cancel()
            result, width = await survivor
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return result, width
        finally:
            await batcher.stop()

    result, width = asyncio.run(main())
    assert result == ("a", "kept")
    assert width == 2  # the abandoned request still rode the assembly


def test_stop_drains_queued_work():
    engine = _FakeEngine("a")

    async def main():
        batcher = Batcher(max_batch=4, linger_us=0)
        await batcher.start()
        futures = [
            asyncio.ensure_future(batcher.submit(engine, _kernel(f"k{i}")))
            for i in range(6)
        ]
        await batcher.stop()
        return await asyncio.gather(*futures)

    results = asyncio.run(main())
    assert len(results) == 6
    assert sum(engine.batch_widths) == 6


def test_stats_track_widths():
    engine = _FakeEngine("a")

    async def main():
        batcher = Batcher(max_batch=8, linger_us=5000)
        await batcher.start()
        try:
            await asyncio.gather(
                *(batcher.submit(engine, _kernel(f"k{i}")) for i in range(6))
            )
            await batcher.submit(engine, _kernel("solo"))
        finally:
            await batcher.stop()
        return batcher.stats

    stats = asyncio.run(main())
    assert stats.batches == 2
    assert stats.batched_requests == 7
    assert stats.max_width == 6
    assert stats.mean_width == pytest.approx(3.5)
    assert stats.engine_batches == 2
    assert stats.scalar_fallbacks == 0


def test_batch_assemble_spans_record_width():
    engine = _FakeEngine("a")
    recorder = TraceRecorder()

    async def main():
        batcher = Batcher(max_batch=8, linger_us=5000, recorder=recorder)
        await batcher.start()
        try:
            await asyncio.gather(
                *(batcher.submit(engine, _kernel(f"k{i}")) for i in range(5))
            )
        finally:
            await batcher.stop()

    asyncio.run(main())
    assembles = [
        r for r in recorder.records() if r.name == "batch_assemble"
    ]
    assert len(assembles) == 1
    # Recorder meta values are stringified (key, value) pairs.
    assert dict(assembles[0].meta)["width"] == "5"


def test_constructor_validation():
    with pytest.raises(ValueError):
        Batcher(max_batch=0)
    with pytest.raises(ValueError):
        Batcher(linger_us=-1)


def test_submit_before_start_raises():
    async def main():
        with pytest.raises(RuntimeError):
            await Batcher().submit(_FakeEngine("a"), _kernel())

    asyncio.run(main())


def _timed_submits(batcher: Batcher, engine, n: int):
    """Submit ``n`` kernels at once; ``(results, seconds, stats)``."""

    async def main():
        await batcher.start()
        loop = asyncio.get_running_loop()
        try:
            started = loop.time()
            results = await asyncio.gather(
                *(_submit(batcher, engine, _kernel(f"k{i}")) for i in range(n))
            )
            return results, loop.time() - started
        finally:
            await batcher.stop()

    results, seconds = asyncio.run(main())
    return results, seconds, batcher.stats


def test_window_closes_once_every_connection_is_in():
    """With two connections registered, two requests are everything
    that can join: the assembly goes at once, not after 5 s."""
    batcher = Batcher(max_batch=16, linger_us=5_000_000)
    batcher.connection_opened()
    batcher.connection_opened()
    results, seconds, stats = _timed_submits(batcher, _FakeEngine("a"), 2)
    assert seconds < 1.0
    assert {width for _, width in results} == {2}
    assert stats.closed == {"full": 0, "all_in": 1, "deadline": 0}


def test_window_waits_for_a_connection_not_yet_in():
    """Three registered, two in: the third may still send, so the
    assembly lingers the whole window."""
    batcher = Batcher(max_batch=16, linger_us=20_000)
    for _ in range(3):
        batcher.connection_opened()
    results, seconds, stats = _timed_submits(batcher, _FakeEngine("a"), 2)
    assert seconds >= 0.02
    assert {width for _, width in results} == {2}
    assert stats.closed == {"full": 0, "all_in": 0, "deadline": 1}


def test_closing_connection_ends_the_window():
    """A connection that closes while the assembly lingers leaves every
    open one in: the wait ends there."""
    engine = _FakeEngine("a")

    async def main():
        batcher = Batcher(max_batch=16, linger_us=5_000_000)
        batcher.connection_opened()
        batcher.connection_opened()
        await batcher.start()
        loop = asyncio.get_running_loop()
        try:
            started = loop.time()
            pending = asyncio.ensure_future(
                _submit(batcher, engine, _kernel("k0"))
            )
            await asyncio.sleep(0.01)
            assert not pending.done()
            batcher.connection_closed()
            result, width = await pending
            return result, width, loop.time() - started, batcher.stats
        finally:
            await batcher.stop()

    result, width, seconds, stats = asyncio.run(main())
    assert result == ("a", "k0")
    assert width == 1
    assert seconds < 1.0
    assert stats.closed == {"full": 0, "all_in": 1, "deadline": 0}


def test_close_reasons_sum_to_batches():
    """Standalone: a full assembly, a deadline one, and a shutdown
    flush, which counts as a deadline."""
    engine = _FakeEngine("a")

    async def main():
        batcher = Batcher(max_batch=4, linger_us=5000)
        await batcher.start()
        await asyncio.gather(
            *(batcher.submit(engine, _kernel(f"k{i}")) for i in range(6))
        )
        flushed = asyncio.ensure_future(batcher.submit(engine, _kernel("z")))
        await asyncio.sleep(0)  # queued, not yet assembled
        await batcher.stop()
        await flushed
        return batcher.stats

    stats = asyncio.run(main())
    assert stats.closed == {"full": 1, "all_in": 0, "deadline": 2}
    assert sum(stats.closed.values()) == stats.batches == 3
    assert stats.as_dict()["closed"] == stats.closed

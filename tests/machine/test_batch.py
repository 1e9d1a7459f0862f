"""run_batch vs run: the batch path must agree with the scalar oracle.

The vectorised batch engine is only trustworthy if ``Engine.run_batch``
reproduces ``Engine.run`` *bit-for-bit* per kernel -- not
approximately, exactly: with noise off, and with noise on from the
same generator state (``TestNoiseFallback``: each run takes its stall,
time and power draws in batch order).  The property tests below sweep
intensity grids wide enough to cross each platform's throttled region
on several Table I platforms (capped and uncapped, with and without
utilisation scaling), so both the pure vectorised path and the
governor fallback are exercised.
"""

import numpy as np
import pytest

from repro.machine.engine import Engine
from repro.machine.kernel import DRAM, KernelSpec
from repro.machine.platforms import platform

# Capped GPU, capped manycore, uncapped GPU with utilisation scaling,
# capped desktop CPU: together they cover every deterministic branch.
PLATFORMS = ["gtx-titan", "xeon-phi", "arndale-gpu", "desktop-cpu"]


def sweep_kernels(config, n_points=40):
    """An intensity sweep crossing the platform's cap region."""
    grid = np.geomspace(1.0 / 8.0, 512.0, n_points)
    Q = 1e8
    return [
        KernelSpec(
            name=f"sweep-{i}", flops=float(x) * Q, traffic={DRAM: Q}
        )
        for i, x in enumerate(grid)
    ]


class TestNoiseFreeEquivalence:
    @pytest.mark.parametrize("platform_id", PLATFORMS)
    def test_bit_for_bit_equal_to_scalar(self, platform_id):
        config = platform(platform_id)
        engine = Engine(config)  # rng=None: noise off
        kernels = sweep_kernels(config)
        batch = engine.run_batch(kernels)
        scalar = [engine.run(kernel) for kernel in kernels]
        # Element-wise exact equality, not approx: both paths must run
        # the same arithmetic in the same order.
        assert batch.wall_times.tolist() == [r.wall_time for r in scalar]
        assert batch.energies.tolist() == [r.true_energy for r in scalar]
        assert batch.ideal_times.tolist() == [r.ideal_time for r in scalar]
        assert batch.throttled.tolist() == [r.throttled for r in scalar]

    @pytest.mark.parametrize("platform_id", ["gtx-titan", "desktop-cpu"])
    def test_sweep_crosses_the_cap_region(self, platform_id):
        """The grids above genuinely exercise both branches."""
        config = platform(platform_id)
        batch = Engine(config).run_batch(sweep_kernels(config))
        assert 0 < batch.n_throttled < len(batch)

    def test_traces_equal_too(self):
        config = platform("gtx-titan")
        engine = Engine(config)
        kernels = sweep_kernels(config, n_points=12)
        batch = engine.run_batch(kernels)
        for i, kernel in enumerate(kernels):
            ref = engine.run(kernel).trace
            got = batch.trace(i)
            assert got.edges.tolist() == ref.edges.tolist()
            assert got.values.tolist() == ref.values.tolist()

    def test_mixed_precision_batch(self):
        config = platform("desktop-cpu")  # has double-precision params
        engine = Engine(config)
        Q = 1e8
        kernels = [
            KernelSpec(
                name=f"k{i}",
                flops=8.0 * Q,
                traffic={DRAM: Q},
                precision="double" if i % 2 else "single",
            )
            for i in range(8)
        ]
        batch = engine.run_batch(kernels)
        scalar = [engine.run(kernel) for kernel in kernels]
        assert batch.wall_times.tolist() == [r.wall_time for r in scalar]
        assert batch.energies.tolist() == [r.true_energy for r in scalar]
        # Double flops really are costed differently.
        assert batch.wall_times[0] != batch.wall_times[1]

    def test_random_access_batch(self):
        config = platform("gtx-titan")  # has random-access parameters
        engine = Engine(config)
        kernels = [
            KernelSpec(
                name=f"chase{i}",
                traffic={DRAM: 1e7},
                random_accesses=10.0 ** i,
            )
            for i in range(4, 8)
        ]
        batch = engine.run_batch(kernels)
        scalar = [engine.run(kernel) for kernel in kernels]
        assert batch.wall_times.tolist() == [r.wall_time for r in scalar]
        assert batch.energies.tolist() == [r.true_energy for r in scalar]

    def test_cache_level_batch(self):
        config = platform("desktop-cpu")
        engine = Engine(config)
        level = config.truth.caches[0].name
        kernels = [
            KernelSpec(name=f"c{i}", flops=1e8, traffic={level: 1e8 * i})
            for i in range(1, 5)
        ]
        batch = engine.run_batch(kernels)
        scalar = [engine.run(kernel) for kernel in kernels]
        assert batch.wall_times.tolist() == [r.wall_time for r in scalar]


class TestNoiseFallback:
    def test_noisy_batch_equals_fresh_sequential_runs(self):
        config = platform("gtx-titan")
        kernels = sweep_kernels(config, n_points=10)
        batch = Engine(config, rng=np.random.default_rng(42)).run_batch(kernels)
        reference = Engine(config, rng=np.random.default_rng(42))
        scalar = [reference.run(kernel) for kernel in kernels]
        # Same seed, same consumption order -> identical draws.
        assert batch.wall_times.tolist() == [r.wall_time for r in scalar]
        assert batch.energies.tolist() == [r.true_energy for r in scalar]

    def test_noisy_batch_keeps_explicit_traces(self):
        config = platform("gtx-titan")
        kernels = sweep_kernels(config, n_points=4)
        batch = Engine(config, rng=np.random.default_rng(0)).run_batch(kernels)
        assert set(batch.traces) == set(range(len(kernels)))

    @staticmethod
    def assert_equals_sequential(platform_id, seed, kernels):
        config = platform(platform_id)
        batch = Engine(config, rng=np.random.default_rng(seed)).run_batch(kernels)
        reference = Engine(config, rng=np.random.default_rng(seed))
        scalar = [reference.run(kernel) for kernel in kernels]
        assert batch.wall_times.tolist() == [r.wall_time for r in scalar]
        assert batch.energies.tolist() == [r.true_energy for r in scalar]
        assert batch.avg_powers.tolist() == [r.true_avg_power for r in scalar]
        assert batch.throttled.tolist() == [r.throttled for r in scalar]
        for i, result in enumerate(scalar):
            trace = batch.trace(i)
            assert trace.edges.tolist() == result.trace.edges.tolist()
            assert trace.values.tolist() == result.trace.values.tolist()
        return batch

    def test_interference_stalls(self):
        # nuc-gpu's OS interference inserts stall segments: each run
        # draws a Poisson count, stall times and lengths before its time
        # and power noise.
        config = platform("nuc-gpu")
        kernels = sweep_kernels(config, n_points=12)
        batch = self.assert_equals_sequential("nuc-gpu", 5, kernels)
        assert batch.n_throttled == 0
        assert batch.flat_traces().segment_counts.max() > 1

    def test_capped_platform_with_throttled_runs(self):
        config = platform("arndale-cpu")
        kernels = sweep_kernels(config, n_points=16)
        batch = self.assert_equals_sequential("arndale-cpu", 9, kernels)
        assert 0 < batch.n_throttled < len(batch)


class TestBatchResultApi:
    def test_empty_batch_raises(self):
        engine = Engine(platform("gtx-titan"))
        with pytest.raises(ValueError, match="at least one kernel"):
            engine.run_batch([])

    def test_results_round_trip(self):
        config = platform("xeon-phi")
        engine = Engine(config)
        kernels = sweep_kernels(config, n_points=6)
        batch = engine.run_batch(kernels)
        results = batch.results()
        assert len(results) == len(batch) == 6
        for i, result in enumerate(batch):
            assert result.kernel is kernels[i]
            assert result.wall_time == float(batch.wall_times[i])
            assert result.true_energy == pytest.approx(
                float(batch.energies[i])
            )

    def test_avg_powers_consistent(self):
        config = platform("gtx-titan")
        batch = Engine(config).run_batch(sweep_kernels(config, n_points=8))
        assert batch.avg_powers.tolist() == (
            batch.energies / batch.wall_times
        ).tolist()

    def test_validation_names_offending_kernel(self):
        config = platform("nuc-gpu")  # no random-access parameters
        engine = Engine(config)
        good = KernelSpec(name="good", flops=1e8, traffic={DRAM: 1e7})
        bad = KernelSpec(name="chase-bad", random_accesses=100.0)
        with pytest.raises(ValueError, match="chase-bad"):
            engine.run_batch([good, bad])

"""Unit tests for repro.machine.engine and kernel."""

import math

import numpy as np
import pytest

from repro.machine.config import PlatformConfig, PlatformEffects, VendorPeaks, smooth_max
from repro.machine.engine import Engine
from repro.machine.governor import GovernorSettings
from repro.machine.kernel import DRAM, KernelSpec
from repro.machine.noise import NoiseSpec
from repro.machine.platforms import platform


@pytest.fixture
def clean_config(simple_machine):
    """simple_machine wrapped as a platform with NO second-order effects."""
    return PlatformConfig(
        truth=simple_machine,
        vendor=VendorPeaks(flops_single=120e9, bandwidth=12e9),
        effects=PlatformEffects(
            ridge_smoothing=0.0,
            governor=GovernorSettings(period=1e-4),
            noise=NoiseSpec(),
        ),
        idle_power=4.0,
        line_size=64,
        kind="cpu",
    )


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            KernelSpec(name="", flops=1.0)
        with pytest.raises(ValueError, match="some work"):
            KernelSpec(name="empty")
        with pytest.raises(ValueError, match="precision"):
            KernelSpec(name="k", flops=1.0, precision="half")
        with pytest.raises(ValueError, match="pattern"):
            KernelSpec(name="k", flops=1.0, pattern="zigzag")
        with pytest.raises(ValueError, match="non-negative"):
            KernelSpec(name="k", traffic={"dram": -1.0})

    def test_traffic_immutable(self):
        k = KernelSpec(name="k", traffic={DRAM: 10.0})
        with pytest.raises(TypeError):
            k.traffic[DRAM] = 20.0

    def test_derived_quantities(self):
        k = KernelSpec(name="k", flops=100.0, traffic={DRAM: 25.0, "L1": 10.0})
        assert k.dram_bytes == 25.0
        assert k.total_bytes == 35.0
        assert k.intensity == pytest.approx(4.0)

    def test_cache_resident_intensity_infinite(self):
        k = KernelSpec(name="k", flops=10.0, traffic={"L1": 5.0})
        assert math.isinf(k.intensity)

    def test_scaled(self):
        k = KernelSpec(
            name="k", flops=10.0, traffic={DRAM: 4.0}, random_accesses=2.0,
            working_set=100,
        )
        s = k.scaled(2.5)
        assert s.flops == 25.0
        assert s.traffic[DRAM] == 10.0
        assert s.random_accesses == 5.0
        assert s.working_set == 100  # unchanged
        with pytest.raises(ValueError):
            k.scaled(0.0)


class TestSmoothMax:
    def test_zero_smoothing_is_max(self):
        assert smooth_max(3.0, 4.0, 0.0) == 4.0

    def test_always_at_least_max(self):
        for s in (0.05, 0.1, 0.3):
            assert smooth_max(3.0, 4.0, s) >= 4.0

    def test_rounded_knee_value(self):
        # Equal components: 2^s * a.
        assert smooth_max(5.0, 5.0, 0.2) == pytest.approx(5.0 * 2 ** 0.2)

    def test_far_from_knee_tight(self):
        assert smooth_max(1.0, 100.0, 0.1) == pytest.approx(100.0, rel=1e-6)

    def test_zero_inputs(self):
        assert smooth_max(0.0, 0.0, 0.1) == 0.0
        assert smooth_max(0.0, 2.0, 0.1) == pytest.approx(2.0)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            smooth_max(1.0, 2.0, -0.1)

    def test_extreme_magnitudes_stay_finite(self):
        # Huge components must not overflow the p-norm ...
        assert smooth_max(1e308, 1e308, 0.1) == pytest.approx(
            1e308 * 2 ** 0.1
        )
        # ... tiny ones must not underflow to zero ...
        assert smooth_max(1e-308, 1e-308, 0.1) == pytest.approx(
            1e-308 * 2 ** 0.1
        )
        # ... and mixed scales stay exact at the dominant component.
        assert smooth_max(1e-300, 1e300, 0.1) == 1e300

    def test_tiny_smoothing_is_hard_max(self):
        # p = 1/smoothing is astronomically large: the ratio term
        # underflows to the hard max, the correct limiting value.
        result = smooth_max(3.0, 4.0, 1e-9)
        assert np.isfinite(result)
        assert result == 4.0

    def test_array_inputs_match_scalar(self):
        a = np.array([3.0, 0.0, 1e-308, 1e308])
        b = np.array([4.0, 0.0, 1e-308, 1.0])
        out = smooth_max(a, b, 0.2)
        assert out.shape == a.shape
        for i in range(len(a)):
            assert out[i] == smooth_max(float(a[i]), float(b[i]), 0.2)

    def test_scalar_inputs_return_python_float(self):
        assert isinstance(smooth_max(1.0, 2.0, 0.1), float)
        assert isinstance(smooth_max(1.0, 2.0, 0.0), float)


class TestComponentPhysics:
    def test_component_times(self, clean_config):
        engine = Engine(clean_config)
        k = KernelSpec(name="k", flops=1e10, traffic={DRAM: 1e9})
        t_f, t_m = engine.component_times(k)
        assert t_f == pytest.approx(0.1)
        assert t_m == pytest.approx(0.1)

    def test_cache_level_times_add(self, clean_config):
        engine = Engine(clean_config)
        k = KernelSpec(name="k", traffic={"L1": 1e10, "L2": 1e9})
        _, t_m = engine.component_times(k)
        assert t_m == pytest.approx(1e10 / 100e9 + 1e9 / 50e9)

    def test_unknown_level_raises(self, clean_config):
        engine = Engine(clean_config)
        k = KernelSpec(name="k", traffic={"L7": 1.0})
        with pytest.raises(KeyError, match="L7"):
            engine.component_times(k)

    def test_random_access_time(self, clean_config):
        engine = Engine(clean_config)
        k = KernelSpec(name="k", random_accesses=1e6)
        _, t_m = engine.component_times(k)
        assert t_m == pytest.approx(1e6 / 100e6)

    def test_dynamic_energy_decomposition(self, clean_config):
        engine = Engine(clean_config)
        k = KernelSpec(
            name="k", flops=1e10, traffic={DRAM: 1e8}, random_accesses=1e5
        )
        expected = 1e10 * 10e-12 + 1e8 * 100e-12 + 1e5 * 10e-9
        assert engine.dynamic_energy(k) == pytest.approx(expected)


class TestCleanExecutionMatchesModel:
    """With effects and noise off, the engine reproduces the capped
    closed-form model up to governor discretisation."""

    @pytest.mark.parametrize("intensity", [0.25, 2.0, 10.0, 64.0, 512.0])
    def test_time_matches_capped_model(self, clean_config, intensity):
        engine = Engine(clean_config)  # rng=None: no noise
        Q = 1e9
        k = KernelSpec(name="k", flops=intensity * Q, traffic={DRAM: Q})
        result = engine.run(k)
        # The control loop settles slightly *below* the cap (one-sided
        # enforcement), so governed runs land within ~2x the hysteresis
        # band above the ideal time, never below it.
        assert result.wall_time >= result.ideal_time * (1 - 1e-9)
        assert result.wall_time == pytest.approx(result.ideal_time, rel=0.04)

    @pytest.mark.parametrize("intensity", [0.25, 10.0, 512.0])
    def test_energy_matches_capped_model(self, clean_config, intensity):
        from repro.core import model

        engine = Engine(clean_config)
        Q = 1e9
        k = KernelSpec(name="k", flops=intensity * Q, traffic={DRAM: Q})
        result = engine.run(k)
        expected = model.energy(clean_config.truth, k.flops, Q)
        assert result.true_energy == pytest.approx(expected, rel=0.03)

    def test_throttle_flag_set_in_cap_region(self, clean_config):
        engine = Engine(clean_config)
        Q = 1e9
        k = KernelSpec(name="k", flops=10.0 * Q, traffic={DRAM: Q})  # ridge
        assert engine.run(k).throttled

    def test_no_throttle_outside_cap_region(self, clean_config):
        engine = Engine(clean_config)
        Q = 1e9
        k = KernelSpec(name="k", flops=0.1 * Q, traffic={DRAM: Q})
        assert not engine.run(k).throttled

    def test_power_never_exceeds_budget(self, clean_config):
        engine = Engine(clean_config)
        Q = 1e9
        truth = clean_config.truth
        for intensity in (1.0, 5.0, 10.0, 20.0, 100.0):
            k = KernelSpec(name="k", flops=intensity * Q, traffic={DRAM: Q})
            result = engine.run(k)
            # Skip the initial ramp (first 5 control periods).
            tail = result.trace.values[5:]
            assert np.all(tail <= truth.pi1 + truth.delta_pi + 1e-9)


class TestSecondOrderEffects:
    def test_ridge_smoothing_slows_the_knee(self, clean_config, simple_machine):
        from dataclasses import replace

        # Use the uncapped machine: at a capped ridge, time is set by
        # dynamic energy / cap, which rounding barely changes.
        uncapped = replace(clean_config, truth=simple_machine.uncapped())
        smooth_cfg = replace(
            uncapped,
            effects=replace(uncapped.effects, ridge_smoothing=0.2),
        )
        Q = 1e9
        k = KernelSpec(
            name="k", flops=simple_machine.time_balance * Q, traffic={DRAM: Q}
        )
        hard = Engine(uncapped).run(k)
        soft = Engine(smooth_cfg).run(k)
        # At the knee the p-norm costs 2^0.2 ~ 15%.
        assert soft.wall_time == pytest.approx(
            hard.wall_time * 2 ** 0.2, rel=0.01
        )

    def test_utilisation_scaling_cuts_mid_intensity_energy(self, clean_config):
        from dataclasses import replace

        cfg = replace(
            clean_config,
            effects=replace(
                clean_config.effects, utilisation_energy_slope=0.3
            ),
        )
        Q = 1e9
        # Memory-bound: flop pipeline underutilised -> flop energy cut.
        k = KernelSpec(name="k", flops=0.5 * Q, traffic={DRAM: Q})
        assert Engine(cfg).dynamic_energy(k) < Engine(clean_config).dynamic_energy(k)

    def test_interference_extends_time_at_constant_power(self, clean_config):
        from dataclasses import replace

        cfg = replace(
            clean_config,
            effects=replace(
                clean_config.effects,
                noise=NoiseSpec(
                    interference_rate=100.0, interference_duration=0.01
                ),
            ),
        )
        Q = 5e9
        k = KernelSpec(name="k", flops=0.1 * Q, traffic={DRAM: Q})
        clean = Engine(cfg, rng=None).run(k)
        noisy = Engine(cfg, rng=np.random.default_rng(0)).run(k)
        assert noisy.wall_time > clean.wall_time

    def test_seeded_runs_reproducible(self, clean_config):
        from dataclasses import replace

        cfg = replace(
            clean_config,
            effects=replace(
                clean_config.effects, noise=NoiseSpec(time_sigma=0.05)
            ),
        )
        k = KernelSpec(name="k", flops=1e9, traffic={DRAM: 1e9})
        a = Engine(cfg, rng=np.random.default_rng(7)).run(k)
        b = Engine(cfg, rng=np.random.default_rng(7)).run(k)
        assert a.wall_time == b.wall_time
        assert a.true_energy == b.true_energy

    def test_cap_guard_band_throttles_earlier(self, clean_config):
        from dataclasses import replace

        guarded = replace(
            clean_config,
            effects=replace(clean_config.effects, cap_guard_band=0.2),
        )
        Q = 1e9
        k = KernelSpec(name="k", flops=10.0 * Q, traffic={DRAM: Q})
        plain = Engine(clean_config).run(k)
        tight = Engine(guarded).run(k)
        assert tight.wall_time > plain.wall_time


class TestIdleAndMissingParams:
    def test_random_access_without_params_raises(self):
        cfg = platform("nuc-gpu")  # no random-access parameters
        engine = Engine(cfg)
        k = KernelSpec(name="k", random_accesses=100.0)
        with pytest.raises(ValueError, match="random-access"):
            engine.run(k)

    def test_random_access_guard_covers_every_entry_point(self):
        """The guard lives in one place (_gather), so component times,
        dynamic energy and the batch physics pass (the ideal-time cap
        check) all reject a dependent-access kernel on a platform
        without random-access parameters -- with an error naming the
        kernel and platform."""
        cfg = platform("nuc-gpu")
        engine = Engine(cfg)
        k = KernelSpec(name="chase-probe", flops=1.0, random_accesses=64.0)
        for method in (
            engine.component_times,
            engine.dynamic_energy,
            lambda kernel: engine.physics([kernel]),
        ):
            with pytest.raises(ValueError) as err:
                method(k)
            assert "chase-probe" in str(err.value)
            assert cfg.truth.name in str(err.value)

    def test_real_platform_clean_run_tracks_model(self):
        from repro.core import model

        cfg = platform("gtx-titan")
        engine = Engine(cfg, rng=None)  # noise off, physics effects on
        Q = 1e9
        k = KernelSpec(name="k", flops=64.0 * Q, traffic={DRAM: Q})
        result = engine.run(k)
        expected = float(model.time(cfg.truth, k.flops, Q))
        assert result.wall_time == pytest.approx(expected, rel=0.1)

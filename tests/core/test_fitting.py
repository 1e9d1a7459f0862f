"""Unit tests for repro.core.fitting."""

import math

import numpy as np
import pytest

from repro.core import fitting, model
from repro.core.fitting import (
    FitObservations,
    fit_cache_level,
    fit_machine,
    fit_random_access,
)
from repro.core.params import MachineParams
from repro.microbench.campaign import CampaignSettings, fit_platform
from repro.stats.regression import fit_log_params


def synthetic_observations(
    machine: MachineParams,
    intensities=None,
    *,
    noise: float = 0.0,
    seed: int = 0,
    capped: bool = True,
    include_pure: bool = True,
) -> FitObservations:
    """Closed-form (optionally noisy) observations from a known machine."""
    rng = np.random.default_rng(seed)
    grid = (
        np.logspace(-3, 7, 30, base=2) if intensities is None else np.asarray(intensities)
    )
    Q = np.full(len(grid), 1e9)
    W = grid * Q
    if include_pure:
        W = np.concatenate([W, [1e11, 1e11], [0.0, 0.0]])
        Q = np.concatenate([Q, [0.0, 0.0], [1e10, 1e10]])
    T = np.asarray(model.time(machine, W, Q, capped=capped), dtype=float)
    E = np.asarray(model.energy(machine, W, Q, capped=capped), dtype=float)
    if noise:
        T = T * np.exp(rng.normal(0, noise, len(T)))
        E = E * np.exp(rng.normal(0, noise, len(E)))
    return FitObservations(W=W, Q=Q, T=T, E=E)


class TestFitObservations:
    def test_validates_lengths(self):
        with pytest.raises(ValueError, match="equal lengths"):
            FitObservations(
                W=np.ones(8), Q=np.ones(8), T=np.ones(8), E=np.ones(7)
            )

    def test_requires_minimum_count(self):
        with pytest.raises(ValueError, match="at least"):
            FitObservations(
                W=np.ones(3), Q=np.ones(3), T=np.ones(3), E=np.ones(3)
            )

    def test_rejects_nonpositive_measurements(self):
        with pytest.raises(ValueError, match="positive"):
            FitObservations(
                W=np.ones(8), Q=np.ones(8), T=np.zeros(8), E=np.ones(8)
            )

    def test_requires_both_work_kinds(self):
        with pytest.raises(ValueError, match="both flops and traffic"):
            FitObservations(
                W=np.ones(8), Q=np.zeros(8), T=np.ones(8), E=np.ones(8)
            )

    def test_cache_traffic_validation(self):
        with pytest.raises(ValueError, match="length mismatch"):
            FitObservations(
                W=np.ones(8),
                Q=np.ones(8),
                T=np.ones(8),
                E=np.ones(8),
                cache_traffic={"L1": np.ones(7)},
            )

    def test_all_zero_random_column_dropped(self):
        obs = FitObservations(
            W=np.ones(8),
            Q=np.ones(8),
            T=np.ones(8),
            E=np.ones(8),
            random_accesses=np.zeros(8),
        )
        assert not obs.has_random

    def test_intensity_with_zero_q(self):
        obs = FitObservations(
            W=np.ones(8),
            Q=np.array([1.0] * 7 + [0.0]),
            T=np.ones(8),
            E=np.ones(8),
        )
        assert math.isinf(obs.intensity[-1])


class TestExactRecovery:
    """On noiseless closed-form data the fit must recover the machine."""

    @pytest.mark.parametrize("capped", [True, False])
    def test_recovers_clean_machine(self, simple_machine, capped):
        machine = simple_machine if capped else simple_machine.uncapped()
        obs = synthetic_observations(machine, capped=capped)
        fit = fit_machine(obs, capped=capped, name="rec")
        assert fit.params.tau_flop == pytest.approx(machine.tau_flop, rel=1e-6)
        assert fit.params.tau_mem == pytest.approx(machine.tau_mem, rel=1e-6)
        assert fit.params.eps_flop == pytest.approx(machine.eps_flop, rel=1e-3)
        assert fit.params.eps_mem == pytest.approx(machine.eps_mem, rel=1e-3)
        assert fit.params.pi1 == pytest.approx(machine.pi1, rel=1e-3)
        if capped:
            assert fit.params.delta_pi == pytest.approx(
                machine.delta_pi, rel=1e-2
            )

    def test_recovery_under_noise(self, simple_machine):
        obs = synthetic_observations(simple_machine, noise=0.01, seed=3)
        fit = fit_machine(obs, capped=True)
        assert fit.params.eps_mem == pytest.approx(
            simple_machine.eps_mem, rel=0.1
        )
        assert fit.params.pi1 == pytest.approx(simple_machine.pi1, rel=0.05)

    def test_uncapped_fit_overpredicts_on_capped_data(self, simple_machine):
        obs = synthetic_observations(simple_machine, capped=True)
        unc = fit_machine(obs, capped=False)
        errors = unc.relative_errors(obs)["performance"]
        # Anchored peaks + a binding cap: the uncapped model overpredicts
        # (strongly so inside the cap region, never the other way).
        assert np.max(errors) > 0.2
        assert np.min(errors) > -1e-6
        cap = fit_machine(obs, capped=True)
        cap_errors = cap.relative_errors(obs)["performance"]
        assert np.max(np.abs(cap_errors)) < 0.01
        assert np.max(np.abs(cap_errors)) < np.max(np.abs(errors))

    def test_free_times_fit_deflates_peaks(self, simple_machine):
        """The anchor ablation: with free time costs the uncapped fit
        hides part of the cap by inflating tau (deflating peaks)."""
        obs = synthetic_observations(simple_machine, capped=True)
        free = fit_machine(obs, capped=False, anchor_times=False)
        assert free.params.tau_flop > simple_machine.tau_flop


class TestDiagnosticsAndErrors:
    def test_diagnostics_near_zero_on_clean_data(self, simple_machine):
        obs = synthetic_observations(simple_machine)
        fit = fit_machine(obs, capped=True)
        assert fit.diagnostics.rms_log_residual < 1e-3
        assert fit.diagnostics.n_observations == obs.n

    def test_relative_errors_structure(self, simple_machine):
        obs = synthetic_observations(simple_machine)
        fit = fit_machine(obs, capped=True)
        errors = fit.relative_errors(obs)
        assert set(errors) == {"time", "energy", "performance", "power"}
        assert len(errors["performance"]) == int(np.sum(obs.W > 0))
        assert len(errors["time"]) == obs.n

    def test_predict_consistency(self, simple_machine):
        obs = synthetic_observations(simple_machine)
        fit = fit_machine(obs, capped=True)
        t_hat, e_hat = fit.predict(obs)
        assert np.allclose(t_hat, obs.T, rtol=1e-4)
        assert np.allclose(e_hat, obs.E, rtol=1e-4)


class TestJointHierarchyFit:
    def test_recovers_cache_and_random_params(self, simple_machine):
        m = simple_machine
        # Build runs over DRAM, L1, L2 and random accesses.
        n = 12
        W = np.concatenate([np.logspace(9, 11, n), np.zeros(6)])
        Q = np.concatenate([np.full(n, 1e9), np.zeros(6)])
        l1 = np.zeros(n + 6)
        l1[n : n + 2] = 5e10
        l2 = np.zeros(n + 6)
        l2[n + 2 : n + 4] = 2e10
        rand = np.zeros(n + 6)
        rand[n + 4 :] = 2e7
        l1_cache = m.cache_level("L1")
        l2_cache = m.cache_level("L2")
        t_mem = (
            Q * m.tau_mem
            + l1 * l1_cache.tau_byte
            + l2 * l2_cache.tau_byte
            + rand * m.random.tau_access
        )
        dyn = (
            W * m.eps_flop
            + Q * m.eps_mem
            + l1 * l1_cache.eps_byte
            + l2 * l2_cache.eps_byte
            + rand * m.random.eps_access
        )
        T = np.maximum(np.maximum(W * m.tau_flop, t_mem), dyn / m.delta_pi)
        E = dyn + m.pi1 * T
        obs = FitObservations(
            W=W, Q=Q, T=T, E=E,
            cache_traffic={"L1": l1, "L2": l2},
            random_accesses=rand,
        )
        fit = fit_machine(obs, capped=True)
        fitted_l1 = fit.params.cache_level("L1")
        assert fitted_l1.eps_byte == pytest.approx(l1_cache.eps_byte, rel=0.02)
        assert fitted_l1.bandwidth == pytest.approx(l1_cache.bandwidth, rel=1e-3)
        assert fit.params.random.eps_access == pytest.approx(
            m.random.eps_access, rel=0.02
        )


    def test_single_start_fit_keeps_every_energy_positive(self, monkeypatch):
        """Scaled-down apu-gpu's capped fit, from its NNLS seed alone,
        drives the unidentified L1 energy towards log -846.  The fit
        returns the theta its cost was computed at (log clipped at
        -500), not an energy rounded to exactly 0.0."""
        obs = fit_platform(
            "apu-gpu", CampaignSettings().scaled_down()
        ).fit_observations
        results = []

        def recording(residuals, x0, **kwargs):
            results.append((residuals, fit_log_params(residuals, x0, **kwargs)))
            return results[-1][1]

        monkeypatch.setattr(fitting, "_N_RESTARTS", 1)
        monkeypatch.setattr(fitting, "fit_log_params", recording)
        fit = fit_machine(obs, capped=True)
        ((residuals, result),) = results
        assert np.all(np.isfinite(result.params)) and np.all(result.params > 0)
        r = residuals(result.params[None])[0]
        assert 0.5 * np.dot(r, r) == result.cost
        assert fit.params.caches[0].eps_byte > 0


class TestStandaloneEstimators:
    def test_fit_cache_level(self):
        Q = np.array([1e10, 2e10, 3e10])
        T = Q / 100e9
        pi1 = 5.0
        E = Q * 2e-12 + pi1 * T
        level = fit_cache_level("L1", Q, T, E, pi1=pi1, capacity=32768)
        assert level.eps_byte == pytest.approx(2e-12)
        assert level.bandwidth == pytest.approx(100e9)
        assert level.capacity == 32768

    def test_fit_cache_level_inconsistent_pi1(self):
        Q = np.array([1e10])
        T = Q / 100e9
        E = Q * 2e-12 + 5.0 * T
        with pytest.raises(ValueError, match="non-positive"):
            fit_cache_level("L1", Q, T, E, pi1=50.0)

    def test_fit_random_access(self):
        A = np.array([1e7, 2e7])
        T = A / 100e6
        pi1 = 3.0
        E = A * 10e-9 + pi1 * T
        r = fit_random_access(A, T, E, pi1=pi1)
        assert r.eps_access == pytest.approx(10e-9)
        assert r.rate == pytest.approx(100e6)

    def test_fit_random_access_validation(self):
        with pytest.raises(ValueError):
            fit_random_access(np.array([]), np.array([]), np.array([]), pi1=1.0)


class TestModelFitImmutability:
    """ModelFit rides the shard pool inside FittedPlatform, so it must
    be a frozen dataclass that pickles losslessly (ARCH011)."""

    def test_model_fit_is_frozen(self, simple_machine):
        import dataclasses

        obs = synthetic_observations(simple_machine)
        fit = fit_machine(obs, capped=True)
        assert dataclasses.is_dataclass(fit)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.capped = False

    def test_model_fit_pickle_round_trip(self, simple_machine):
        import pickle

        obs = synthetic_observations(simple_machine)
        fit = fit_machine(obs, capped=True)
        clone = pickle.loads(pickle.dumps(fit))
        assert clone.params == fit.params
        t_a, e_a = fit.predict(obs)
        t_b, e_b = clone.predict(obs)
        np.testing.assert_array_equal(t_a, t_b)
        np.testing.assert_array_equal(e_a, e_b)

"""Unit tests for repro.stats (K-S, descriptive, bootstrap, regression)."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.bootstrap import bootstrap_ci, bootstrap_paired_ci
from repro.stats.descriptive import boxplot_stats, pearson, quantile, spearman
from repro.stats.ks import kolmogorov_sf, ks_2sample, ks_statistic
from repro.stats.regression import fit_log_params, nonnegative_lstsq

from .scipy_oracle import scipy_fit_log_params


class TestKS:
    def test_identical_samples_zero_statistic(self):
        x = np.arange(10.0)
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_samples_statistic_one(self):
        assert ks_statistic([1.0, 2.0], [10.0, 20.0]) == 1.0

    def test_matches_scipy_statistic(self, rng):
        for _ in range(20):
            a = rng.normal(0, 1, rng.integers(5, 60))
            b = rng.normal(0.3, 1.2, rng.integers(5, 60))
            ours = ks_statistic(a, b)
            theirs = scipy.stats.ks_2samp(a, b).statistic
            assert ours == pytest.approx(theirs, abs=1e-12)

    def test_pvalue_close_to_scipy_asymptotic(self, rng):
        for _ in range(10):
            a = rng.normal(0, 1, 80)
            b = rng.normal(0.25, 1, 90)
            ours = ks_2sample(a, b).pvalue
            theirs = scipy.stats.ks_2samp(a, b, method="asymp").pvalue
            assert ours == pytest.approx(theirs, abs=0.03)

    def test_detects_shifted_distribution(self, rng):
        a = rng.normal(0, 1, 200)
        b = rng.normal(1.0, 1, 200)
        assert ks_2sample(a, b).significant()

    def test_same_distribution_usually_not_flagged(self):
        flags = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a = rng.normal(0, 1, 60)
            b = rng.normal(0, 1, 60)
            flags += ks_2sample(a, b).significant()
        assert flags <= 6  # ~5% false positive rate

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1.0])

    def test_kolmogorov_sf_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(-1.0) == 1.0
        assert kolmogorov_sf(5.0) < 1e-10
        assert 0 < kolmogorov_sf(1.0) < 1

    def test_kolmogorov_sf_reference_value(self):
        # Q(1.36) ~ 0.049 -- the classic 5% critical point.
        assert kolmogorov_sf(1.358) == pytest.approx(0.05, abs=0.002)

    def test_significant_alpha_validation(self):
        res = ks_2sample([1.0, 2.0, 3.0], [1.5, 2.5, 3.5])
        with pytest.raises(ValueError):
            res.significant(0.0)


class TestDescriptive:
    def test_boxplot_stats_values(self):
        stats = boxplot_stats([1, 2, 3, 4, 5])
        assert stats.median == 3
        assert stats.q25 == 2
        assert stats.q75 == 4
        assert stats.iqr == 2
        assert stats.spread == 4
        assert stats.mean == 3

    def test_boxplot_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            boxplot_stats([])
        with pytest.raises(ValueError):
            boxplot_stats([1.0, float("nan")])

    def test_quantile(self):
        assert quantile([1, 2, 3, 4], 0.0) == 1
        assert quantile([1, 2, 3, 4], 1.0) == 4
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_pearson_matches_scipy(self, rng):
        x = rng.normal(0, 1, 50)
        y = 0.5 * x + rng.normal(0, 1, 50)
        assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y)[0])

    def test_pearson_perfect(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, x) == pytest.approx(1.0)
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_pearson_validation(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])
        with pytest.raises(ValueError):
            pearson([1.0, 1.0], [1.0, 2.0])  # zero variance
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_spearman_matches_scipy(self, rng):
        x = rng.normal(0, 1, 40)
        y = x ** 3 + rng.normal(0, 0.1, 40)
        assert spearman(x, y) == pytest.approx(
            scipy.stats.spearmanr(x, y).statistic, abs=1e-12
        )

    def test_spearman_handles_ties(self):
        x = [1.0, 1.0, 2.0, 3.0]
        y = [5.0, 5.0, 6.0, 7.0]
        assert spearman(x, y) == pytest.approx(
            scipy.stats.spearmanr(x, y).statistic, abs=1e-12
        )

    def test_spearman_invariant_to_monotone_transform(self, rng):
        x = rng.uniform(1, 10, 30)
        y = rng.uniform(1, 10, 30)
        assert spearman(x, y) == pytest.approx(
            spearman(np.log(x), y ** 2), abs=1e-12
        )


class TestBootstrap:
    def test_ci_contains_estimate(self, rng):
        values = rng.normal(10, 2, 100)
        ci = bootstrap_ci(values, rng=rng)
        assert ci.low <= ci.estimate <= ci.high
        assert ci.contains(ci.estimate)

    def test_ci_covers_true_median_usually(self):
        covered = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            values = rng.normal(5, 1, 80)
            ci = bootstrap_ci(values, rng=rng, n_resamples=400)
            covered += ci.contains(5.0)
        assert covered >= 24

    def test_ci_width_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = bootstrap_ci(rng.normal(0, 1, 20), rng=np.random.default_rng(1))
        large = bootstrap_ci(rng.normal(0, 1, 2000), rng=np.random.default_rng(1))
        assert large.width < small.width

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], rng=rng)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5, rng=rng)

    def test_paired_ci_for_correlation(self, rng):
        x = rng.normal(0, 1, 60)
        y = 0.9 * x + rng.normal(0, 0.2, 60)
        ci = bootstrap_paired_ci(x, y, lambda a, b: pearson(a, b), rng=rng)
        assert ci.low > 0.5  # strongly positive correlation

    def test_paired_validation(self, rng):
        with pytest.raises(ValueError):
            bootstrap_paired_ci([1.0, 2.0], [1.0], lambda a, b: 0.0, rng=rng)


class TestRegression:
    def test_nonnegative_lstsq_exact(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        x_true = np.array([3.0, 4.0])
        x = nonnegative_lstsq(A, A @ x_true)
        assert np.allclose(x, x_true)

    def test_nonnegative_lstsq_clips_at_zero(self):
        A = np.array([[1.0], [1.0]])
        b = np.array([-1.0, -2.0])
        x = nonnegative_lstsq(A, b)
        assert x[0] == 0.0

    def test_nonnegative_lstsq_scale_invariance(self):
        A = np.array([[1e-12, 1.0], [2e-12, 0.5], [3e-12, 2.0]])
        x_true = np.array([5e11, 0.25])
        x = nonnegative_lstsq(A, A @ x_true)
        assert np.allclose(x, x_true, rtol=1e-6)

    def test_nonnegative_lstsq_validation(self):
        with pytest.raises(ValueError):
            nonnegative_lstsq(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            nonnegative_lstsq(np.array([[1.0], [np.nan]]), np.ones(2))

    def test_fit_log_params_recovers_power_law(self, rng):
        x = np.logspace(0, 3, 40)
        true = np.array([2.5, 0.7])
        y = true[0] * x ** true[1]

        def residuals(theta):
            return np.log(theta[:, :1] * x ** theta[:, 1:]) - np.log(y)

        def jacobian(theta):
            columns = np.broadcast_arrays(1.0 / theta[:, :1], np.log(x))
            return np.stack(columns, axis=-1)

        result = fit_log_params(residuals, [1.0, 1.0], jacobian=jacobian, rng=rng)
        assert np.allclose(result.params, true, rtol=1e-6)
        assert result.rms_residual < 1e-8

    def test_fit_log_params_natural_scale_jacobian(self, rng):
        """A natural-scale Jacobian (chain rule applied inside) reaches
        the optimum of scipy's 2-point trf fit with fewer residual
        evaluations."""
        x = np.logspace(0, 3, 40)
        true = np.array([2.5, 0.7])
        y = true[0] * x ** true[1]
        calls = []

        def residuals(theta):
            calls.append(1)
            return np.log(theta[:, :1] * x ** theta[:, 1:]) - np.log(y)

        def jacobian(theta):
            columns = np.broadcast_arrays(1.0 / theta[:, :1], np.log(x))
            return np.stack(columns, axis=-1)

        numeric = scipy_fit_log_params(
            residuals,
            [1.0, 1.0],
            jacobian=jacobian,
            rng=np.random.default_rng(3),
            two_point=True,
        )
        numeric_calls = len(calls)
        calls.clear()
        analytic = fit_log_params(
            residuals, [1.0, 1.0], jacobian=jacobian, rng=np.random.default_rng(3)
        )
        assert np.allclose(analytic.params, true, rtol=1e-9)
        assert np.allclose(analytic.params, numeric.params, rtol=1e-6)
        assert len(calls) < numeric_calls

    def test_fit_log_params_rejects_nonpositive_start(self, rng):
        with pytest.raises(ValueError):
            fit_log_params(
                lambda t: t,
                [0.0, 1.0],
                jacobian=lambda t: np.broadcast_to(np.eye(2), (len(t), 2, 2)),
                rng=rng,
            )

    def test_fit_log_params_multistart_beats_bad_seed(self, rng):
        """A deliberately distant initial guess still converges thanks
        to the restarts."""
        x = np.logspace(0, 2, 30)
        y = 4.0 * x

        def residuals(theta):
            return np.log(theta[:, :1] * x) - np.log(y)

        def jacobian(theta):
            return np.broadcast_to(1.0 / theta[:, None, :], (len(theta), len(x), 1))

        result = fit_log_params(
            residuals,
            [1e6],
            jacobian=jacobian,
            n_restarts=8,
            perturbation=2.0,
            rng=rng,
        )
        assert result.params[0] == pytest.approx(4.0, rel=1e-6)


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=60),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=60),
)
@settings(max_examples=80)
def test_ks_statistic_bounds(a, b):
    d = ks_statistic(a, b)
    assert 0.0 <= d <= 1.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=80))
@settings(max_examples=80)
def test_boxplot_ordering_invariants(values):
    stats = boxplot_stats(values)
    assert stats.minimum <= stats.q25 <= stats.median <= stats.q75 <= stats.maximum
    assert stats.minimum <= stats.mean <= stats.maximum

"""Differential tests of the fit's numpy solvers against scipy.

scipy is a test-only dependency; these tests use it as the oracle the
numpy ports in :mod:`repro.stats.regression` must reproduce.

* ``_trust_region`` against ``least_squares(method="trf")`` on the
  capped and uncapped fits of all twelve scaled-down platforms at seeds
  2014 and 7, and the double-precision fits of the full seed-2014
  gtx-titan and desktop-cpu campaigns.  With trf's ``svd`` swapped for
  ``np.linalg.svd`` (scipy links its own LAPACK build), every start
  gives bit-identical ``x``, cost and success flag, at the fit's
  ``max_nfev`` and at a cap of 5 evaluations.  With stock scipy,
  each fit's best-of-starts cost agrees within 1e-12 relative, its
  converged flag is equal, and every Table I field the data pins agrees
  within 1e-6.
* ``_lawson_hanson`` against ``scipy.optimize.nnls`` on the same
  column-scaled matrix, on generated problems and on the 33 seed
  problems of a full seed-2014 campaign.  Relative errors are taken
  against ``||b||``, the residual at ``x = 0``: a solution entry can be
  a rounding-level difference of large terms, and scipy's residual can
  be rounding-level zero.  With full column rank every entry agrees
  within 1e-12 (of itself or of ``||b||``); otherwise the residual norm
  exceeds scipy's by at most 1e-10 of ``||b||``.  Every entry is finite
  and non-negative.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, nnls

from repro.core import fitting
from repro.machine.platforms import PLATFORM_IDS
from repro.microbench.campaign import CampaignSettings, fit_platform
from repro.microbench.suite import fit_campaign, to_fit_observations
from repro.stats import regression
from repro.stats.regression import _lawson_hanson, _trust_region

from ..core.test_fit_jacobian import assert_fields_agree
from .scipy_oracle import scipy_fit_log_params

#: Seed of every fit's multistart rng.
FIT_SEED = 2015

CASES = [
    *(("scaled", seed, pid) for seed in (2014, 7) for pid in PLATFORM_IDS),
    ("double", 2014, "gtx-titan"),
    ("double", 2014, "desktop-cpu"),
]


def case_id(case):
    return "-".join(map(str, case))


@pytest.fixture(scope="module")
def problems(all_fits):
    """``case -> [(obs, capped), ...]``, the fits each case covers."""
    cache = {}

    def get(case):
        if case not in cache:
            kind, seed, pid = case
            if kind == "scaled":
                settings = CampaignSettings(seed=seed).scaled_down()
                obs = fit_platform(pid, settings).fit_observations
                cache[case] = [(obs, True), (obs, False)]
            else:
                campaign = all_fits[pid].campaign
                runs = campaign.intensity_double + campaign.peak_double
                cache[case] = [(to_fit_observations(runs), True)]
        return cache[case]

    return get


def fit_with(monkeypatch, solver, obs, capped):
    """``fit_machine`` with ``solver`` as its multistart, and the
    solver's :class:`LogFitResult`."""
    results = []

    def recording(*args, **kwargs):
        results.append(solver(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(fitting, "fit_log_params", recording)
    fit = fitting.fit_machine(obs, capped=capped, rng=np.random.default_rng(FIT_SEED))
    (result,) = results
    return fit, result


@pytest.fixture
def trf_with_numpy_svd(monkeypatch):
    trf = getattr(getattr(scipy.optimize, "_lsq", None), "trf", None)
    if trf is None or not hasattr(trf, "svd"):
        pytest.skip("this scipy has no scipy.optimize._lsq.trf.svd to swap")
    monkeypatch.setattr(trf, "svd", np.linalg.svd)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_every_start_matches_trf(case, problems, trf_with_numpy_svd, monkeypatch):
    for obs, capped in problems(case):
        starts = []

        def recording(fun, jac, x0, *, max_nfev):
            starts.append((fun, jac, x0, max_nfev))
            return _trust_region(fun, jac, x0, max_nfev=max_nfev)

        monkeypatch.setattr(regression, "_trust_region", recording)
        fitting.fit_machine(obs, capped=capped, rng=np.random.default_rng(FIT_SEED))
        assert len(starts) == fitting._N_RESTARTS
        for fun, jac, x0, max_nfev in starts:
            # A cap of 5 also checks the stop on max_nfev, unconverged.
            for cap in (max_nfev, 5):
                x, cost, success = _trust_region(fun, jac, x0, max_nfev=cap)
                want = least_squares(fun, x0, jac=jac, method="trf", max_nfev=cap)
                assert np.array_equal(x, want.x)
                assert cost == want.cost
                assert success == want.success


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_fits_agree_with_stock_trf(case, problems, monkeypatch):
    for obs, capped in problems(case):
        fit, result = fit_with(monkeypatch, regression.fit_log_params, obs, capped)
        want_fit, want = fit_with(monkeypatch, scipy_fit_log_params, obs, capped)
        assert abs(result.cost - want.cost) <= 1e-12 * want.cost
        assert fit.diagnostics.converged == want_fit.diagnostics.converged
        assert_fields_agree(fit.params, want_fit.params, obs)


def scaled_columns(A):
    """``A`` with the column scaling ``nonnegative_lstsq`` applies."""
    scales = np.linalg.norm(A, axis=0)
    scales[scales == 0.0] = 1.0
    return A / scales


def assert_matches_nnls(A, b):
    """``_lawson_hanson`` against scipy on one column-scaled problem."""
    x = _lawson_hanson(A, b)
    assert np.all(np.isfinite(x)) and np.all(x >= 0)
    want, _ = nnls(A, b)
    b_norm = np.linalg.norm(b)
    if np.linalg.matrix_rank(A) == A.shape[1]:
        np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-12 * b_norm)
    else:
        excess = np.linalg.norm(A @ x - b) - np.linalg.norm(A @ want - b)
        assert excess <= 1e-10 * b_norm


@st.composite
def nnls_problems(draw):
    """2-60 rows, 1-8 columns scaled by 1e-6..1e6, some of them scaled
    copies of earlier ones; ``b`` is noise or a noisy non-negative
    combination of the columns."""
    m = draw(st.integers(2, 60))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_scales = draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n))
    A = rng.normal(size=(m, n)) * 10.0 ** np.asarray(log_scales)
    for k in range(1, n):
        if draw(st.integers(0, 3)) == 0:
            source = draw(st.integers(0, k - 1))
            A[:, k] = A[:, source] * 10.0 ** draw(st.floats(-3.0, 3.0))
    noise = rng.normal(size=m) * 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        return A, noise
    mix = np.abs(rng.normal(size=n)) * (rng.random(n) < 0.6)
    return A, A @ mix + draw(st.sampled_from([0.0, 1e-6, 1e-2])) * noise


@given(nnls_problems())
@settings(max_examples=300)
def test_lawson_hanson_matches_nnls(problem):
    A, b = problem
    assert_matches_nnls(scaled_columns(A), b)


def test_lawson_hanson_matches_nnls_on_campaign_seeds(all_fits, monkeypatch):
    seen = []

    def recording(A, b):
        seen.append((A, b))
        return _lawson_hanson(A, b)

    monkeypatch.setattr(regression, "_lawson_hanson", recording)
    for fitted in all_fits.values():
        fit_campaign(fitted.campaign, rng=np.random.default_rng(FIT_SEED))
    assert len(seen) == 33
    for A, b in seen:
        assert_matches_nnls(A, b)

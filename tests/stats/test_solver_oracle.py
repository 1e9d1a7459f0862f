"""Differential tests of the fit's numpy solvers against scipy.

scipy is a test-only dependency; these tests use it as the oracle the
numpy ports in :mod:`repro.stats.regression` must reproduce.

* ``_trust_region`` against ``least_squares(method="trf")`` on the
  capped and uncapped fits of all twelve scaled-down platforms at seeds
  2014 and 7, and the double-precision fits of the full seed-2014
  gtx-titan and desktop-cpu campaigns.  With trf's ``svd`` swapped for
  ``np.linalg.svd`` (scipy links its own LAPACK build), every lane of
  the one lockstep solve gives the ``x``, cost and success flag trf
  gives on that lane's start alone, through the one-row slices of the
  stacked callbacks, bit for bit, at the fit's ``max_nfev`` and at a
  cap of 5 evaluations.  A toy batch does the same with its lanes
  stopping on gtol, on ftol, on ``max_nfev`` and through non-finite
  trial steps; it makes one residual call per round, evaluates every
  lane as often as trf does and skips the Jacobian trf computes and
  never uses where a lane stops on ftol.  A start with non-finite
  residuals or a failing SVD is dropped without moving the other
  lanes.  With stock scipy,
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


def one_lane(fun, jac):
    """scipy's view of one lane: the stacked callbacks at k = 1."""
    return (lambda x: fun(x[None])[0]), (lambda x: jac(x[None])[0])


def assert_lanes_match_trf(fun, jac, x0, max_nfev):
    """Every lane of one lockstep solve against trf on its start alone;
    returns trf's results and, per lane, how many of its residual
    evaluations were non-finite."""
    x, cost, success = _trust_region(fun, jac, x0, max_nfev=max_nfev)
    lane_fun, lane_jac = one_lane(fun, jac)
    results, nonfinite = [], []
    for lane, start in enumerate(x0):
        seen = []

        def counting(x_lane):
            f = lane_fun(x_lane)
            seen.append(not np.all(np.isfinite(f)))
            return f

        want = least_squares(
            counting, start, jac=lane_jac, method="trf", max_nfev=max_nfev
        )
        assert np.array_equal(x[lane], want.x), lane
        assert cost[lane] == want.cost, lane
        assert success[lane] == want.success, lane
        results.append(want)
        nonfinite.append(sum(seen))
    return results, nonfinite


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_every_start_matches_trf(case, problems, trf_with_numpy_svd, monkeypatch):
    for obs, capped in problems(case):
        solves = []

        def recording(fun, jac, x0, *, max_nfev):
            solves.append((fun, jac, x0, max_nfev))
            return _trust_region(fun, jac, x0, max_nfev=max_nfev)

        monkeypatch.setattr(regression, "_trust_region", recording)
        fitting.fit_machine(obs, capped=capped, rng=np.random.default_rng(FIT_SEED))
        ((fun, jac, x0, max_nfev),) = solves
        assert x0.shape[0] == fitting._N_RESTARTS
        # A cap of 5 also checks the stop on max_nfev, unconverged.
        for cap in (max_nfev, 5):
            assert_lanes_match_trf(fun, jac, x0, cap)


#: A toy problem with stacked callbacks: a decaying exponential fitted
#: to 25 points, plus a ``0.1 sqrt(b)`` residual that is NaN for b < 0.
TOY_T = np.linspace(0.0, 4.0, 25)
TOY_Y = 2.0 * np.exp(-0.7 * TOY_T) + 0.05 * np.sin(7.0 * TOY_T)
#: The toy's optimum, where the gradient is below gtol.
TOY_OPTIMUM = [2.0114763653314434, 0.7025052039878478]


def toy_residuals(x):
    a, b = x[:, :1], x[:, 1:]
    with np.errstate(invalid="ignore"):
        fit = a * np.exp(-b * TOY_T) - TOY_Y
        return np.concatenate([fit, 0.1 * np.sqrt(b)], axis=1)


def toy_jacobian(x):
    a, b = x[:, :1], x[:, 1:]
    decay = np.exp(-b * TOY_T)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.concatenate([np.zeros_like(a), 0.05 / np.sqrt(b)], axis=1)
    fit_rows = np.stack([decay, -a * TOY_T * decay], axis=-1)
    return np.concatenate([fit_rows, root[:, None, :]], axis=1)


def test_lanes_stop_for_different_reasons(trf_with_numpy_svd):
    # trf's status: 0 max_nfev, 1 gtol, 2 ftol.
    x0 = np.array([TOY_OPTIMUM, [1.0, 1.0], [0.1, 9.0], [60.0, 40.0]])
    results, nonfinite = assert_lanes_match_trf(toy_residuals, toy_jacobian, x0, 8)
    assert [want.status for want in results] == [1, 2, 2, 0]
    # The far start's first steps overshoot to b < 0 and shrink.
    assert nonfinite == [0, 0, 0, 3]
    results, nonfinite = assert_lanes_match_trf(toy_residuals, toy_jacobian, x0, 2000)
    assert [want.status for want in results] == [1, 2, 2, 2]
    assert nonfinite[-1] > 0


def test_lanes_share_calls_and_skip_the_unused_jacobian(trf_with_numpy_svd):
    # One residual call per round, one residual row per trf evaluation,
    # and one Jacobian row fewer than trf's for each lane that stops on
    # ftol: trf computes that Jacobian and never uses it.
    x0 = np.array([TOY_OPTIMUM, [1.0, 1.0], [0.1, 9.0], [60.0, 40.0]])
    lane_fun, lane_jac = one_lane(toy_residuals, toy_jacobian)
    for cap in (8, 2000):
        rows = {toy_residuals: [], toy_jacobian: []}

        def counted(callback):
            def call(x):
                rows[callback].append(len(x))
                return callback(x)

            return call

        _trust_region(counted(toy_residuals), counted(toy_jacobian), x0, max_nfev=cap)
        wants = [
            least_squares(lane_fun, start, jac=lane_jac, method="trf", max_nfev=cap)
            for start in x0
        ]
        assert len(rows[toy_residuals]) == max(want.nfev for want in wants)
        assert sum(rows[toy_residuals]) == sum(want.nfev for want in wants)
        stopped_on_ftol = sum(want.status == 2 for want in wants)
        assert stopped_on_ftol >= 2
        njev = sum(want.njev for want in wants)
        assert sum(rows[toy_jacobian]) == njev - stopped_on_ftol


def assert_dropped(fun, jac, x0, bad, error):
    """Lane ``bad`` of one lockstep solve comes back NaN where trf on its
    start alone raises ``error``, and the other lanes come out as they
    do without it."""
    lane_fun, lane_jac = one_lane(fun, jac)
    with pytest.raises(error):
        least_squares(lane_fun, x0[bad], jac=lane_jac, method="trf")
    x, cost, success = _trust_region(fun, jac, x0, max_nfev=2000)
    assert np.all(np.isnan(x[bad])) and np.isnan(cost[bad]) and not success[bad]
    kept = [lane for lane in range(len(x0)) if lane != bad]
    want = _trust_region(fun, jac, x0[kept], max_nfev=2000)
    for got, expected in zip((x[kept], cost[kept], success[kept]), want):
        assert np.array_equal(got, expected)


def test_start_with_nonfinite_residuals_is_dropped(trf_with_numpy_svd):
    # The Jacobian is finite at the bad start, so only the drop rule,
    # not a failing SVD, can leave its lane NaN.
    def jacobian(x):
        return np.nan_to_num(toy_jacobian(x))

    x0 = np.array([[1.0, 1.0], [1.0, -1.0], [60.0, 40.0]])
    assert_dropped(toy_residuals, jacobian, x0, 1, ValueError)


def test_start_whose_svd_fails_is_dropped(trf_with_numpy_svd):
    # Finite residuals, a NaN Jacobian: the SVD raises LinAlgError.
    def jacobian(x):
        J = toy_jacobian(x)
        J[x[:, 0] > 50.0] = np.nan
        return J

    x0 = np.array([[1.0, 1.0], [60.0, 40.0], [0.1, 9.0]])
    assert_dropped(toy_residuals, jacobian, x0, 1, np.linalg.LinAlgError)


def test_fit_solves_every_start_in_lockstep():
    """``fit_log_params`` hands all its starts to one solve."""
    calls = []

    def residuals(theta):
        calls.append(len(theta))
        return toy_residuals(theta)

    result = regression.fit_log_params(
        residuals,
        [1.0, 1.0],
        jacobian=toy_jacobian,
        n_restarts=4,
        rng=np.random.default_rng(1),
    )
    # One lockstep solve: the first call evaluates all four starts.
    assert calls[0] == 4
    assert result.n_restarts == 4 and result.success
    np.testing.assert_allclose(result.params, TOY_OPTIMUM, rtol=1e-6)


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

"""scipy as the fit's test-only oracle.

:func:`scipy_fit_log_params` is :func:`repro.stats.regression.fit_log_params`
with scipy's ``least_squares(method="trf")`` in place of the numpy
port: the same starts from the same rng draws, the same clip and
``nan_to_num`` wrappers, the same skipped diverged starts and the
same best-of-starts choice.  With
``two_point=True`` scipy builds 2-point finite-difference Jacobians
instead of calling the analytic one.
"""

import numpy as np
from scipy.optimize import least_squares

from repro.stats.regression import LogFitResult


def scipy_fit_log_params(
    residuals,
    x0,
    *,
    jacobian,
    n_restarts=4,
    perturbation=0.3,
    rng=None,
    max_nfev=2000,
    two_point=False,
):
    x0 = np.asarray(x0, dtype=float)
    rng = rng or np.random.default_rng(12345)

    def log_residuals(log_theta):
        with np.errstate(over="ignore", invalid="ignore"):
            theta = np.exp(np.clip(log_theta, -500.0, 500.0))
            res = residuals(theta)
        return np.nan_to_num(res, nan=1e6, posinf=1e6, neginf=-1e6)

    def log_jacobian(log_theta):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            theta = np.exp(np.clip(log_theta, -500.0, 500.0))
            d_log = jacobian(theta) * theta
        return np.nan_to_num(d_log, nan=0.0, posinf=1e6, neginf=-1e6)

    best = None
    log_x0 = np.log(x0)
    starts = [log_x0] + [
        log_x0 + rng.normal(0.0, perturbation, size=log_x0.shape)
        for _ in range(n_restarts - 1)
    ]
    for start in starts:
        try:
            result = least_squares(
                log_residuals,
                start,
                jac="2-point" if two_point else log_jacobian,
                method="trf",
                max_nfev=max_nfev,
            )
        except (ValueError, FloatingPointError):  # diverged restart
            continue
        if not np.all(np.isfinite(result.x)):
            continue
        params = np.exp(np.clip(result.x, -500.0, 500.0))
        candidate = (float(result.cost), params, bool(result.success))
        if best is None or candidate[0] < best[0]:
            best = candidate
    cost, params, success = best
    rms = float(np.sqrt(2.0 * cost / max(len(residuals(params)), 1)))
    return LogFitResult(
        params=params,
        cost=cost,
        success=success,
        n_restarts=len(starts),
        rms_residual=rms,
    )

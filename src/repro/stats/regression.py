"""Nonlinear least-squares helpers for model fitting.

The paper fits its parameter vector by nonlinear regression on
microbenchmark sweeps.  The estimators here standardise two details
that matter for that fit:

* **log-parameterisation** -- every model parameter is a positive
  physical quantity spanning orders of magnitude (picojoules to
  hundreds of Watts), so the optimiser works on ``log(theta)``;
* **multistart** -- the capped model's ``max()`` makes the residual
  surface only piecewise smooth, so each fit is restarted from several
  perturbed initial points and the best solution kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["LogFitResult", "fit_log_params", "nonnegative_lstsq"]


@dataclass(frozen=True)
class LogFitResult:
    """Outcome of a multistart log-space least-squares fit."""

    params: np.ndarray  #: best parameters (natural scale).
    cost: float  #: 0.5 * sum of squared residuals at the optimum.
    success: bool  #: whether any restart converged.
    n_restarts: int
    rms_residual: float  #: root-mean-square residual at the optimum.


def fit_log_params(
    residuals: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    *,
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
    n_restarts: int = 4,
    perturbation: float = 0.3,
    rng: np.random.Generator | None = None,
    max_nfev: int = 2000,
) -> LogFitResult:
    """Minimise ``residuals(theta)`` over positive ``theta``.

    ``residuals`` receives parameters on the natural (positive) scale;
    optimisation happens in log space.  ``x0`` entries must be
    strictly positive.  Restarts perturb ``log(x0)`` by centred normal
    noise of scale ``perturbation``.

    ``jacobian``, when given, maps natural-scale ``theta`` to the
    ``(n_residuals, n_params)`` matrix ``d residuals / d theta``; the
    chain rule into log space (scaling column ``k`` by ``theta[k]``) is
    applied here.  Without it the optimiser builds 2-point
    finite-difference Jacobians, one residual evaluation per parameter
    per Jacobian.
    """
    # scipy loads here, not at module import: a command that never
    # fits (list, platform, audit, fleet, a warm replay) skips its
    # import cost entirely.
    from scipy.optimize import least_squares

    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0):
        raise ValueError("all initial parameters must be strictly positive")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    rng = rng or np.random.default_rng(12345)

    def log_residuals(log_theta: np.ndarray) -> np.ndarray:
        # Clip so a wild optimiser step cannot overflow exp(); the
        # resulting residuals are finite and steer the step back.
        with np.errstate(over="ignore", invalid="ignore"):
            theta = np.exp(np.clip(log_theta, -500.0, 500.0))
            res = residuals(theta)
        return np.nan_to_num(res, nan=1e6, posinf=1e6, neginf=-1e6)

    jac: Callable[[np.ndarray], np.ndarray] | str = "2-point"
    if jacobian is not None:

        def log_jacobian(log_theta: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                theta = np.exp(np.clip(log_theta, -500.0, 500.0))
                d_log = jacobian(theta) * theta
            return np.nan_to_num(d_log, nan=0.0, posinf=1e6, neginf=-1e6)

        jac = log_jacobian

    best: tuple[float, np.ndarray, bool] | None = None
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
                jac=jac,
                method="trf",
                max_nfev=max_nfev,
            )
        except (ValueError, FloatingPointError):  # diverged restart
            continue
        if not np.all(np.isfinite(result.x)):
            continue
        candidate = (float(result.cost), np.exp(result.x), bool(result.success))
        if best is None or candidate[0] < best[0]:
            best = candidate
    if best is None:
        raise RuntimeError("every least-squares restart failed")
    cost, params, success = best
    n_res = len(residuals(params))
    rms = float(np.sqrt(2.0 * cost / max(n_res, 1)))
    return LogFitResult(
        params=params,
        cost=cost,
        success=success,
        n_restarts=len(starts),
        rms_residual=rms,
    )


def nonnegative_lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``min ||Ax - b||`` subject to ``x >= 0``.

    Wraps :func:`scipy.optimize.nnls`; used for the linear energy
    decomposition ``E ~ W*eps_flop + Q*eps_mem + T*pi1`` that seeds the
    nonlinear fit (all three coefficients are physical energies/powers
    and must be non-negative).
    """
    from scipy.optimize import nnls  # deferred, as in fit_log_params

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("A must be (n, k) and b (n,)")
    # Column scaling: nnls is sensitive to wildly different magnitudes.
    scales = np.linalg.norm(A, axis=0)
    # Exact sentinel: a column norm is 0.0 only for an all-zero column,
    # whose scale must stay exactly 1.  # archlint: disable=ARCH004
    scales[scales == 0.0] = 1.0
    x_scaled, _ = nnls(A / scales, b)
    return x_scaled / scales

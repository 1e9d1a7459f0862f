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

The solvers are numpy ports of scipy's ``least_squares(method="trf")``
and ``nnls``; the test suite checks both against scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["LogFitResult", "fit_log_params", "nonnegative_lstsq"]

_Map = Callable[[np.ndarray], np.ndarray]
_EPS = np.finfo(float).eps
_TOL = 1e-8  # trf's default ftol, xtol and gtol


@dataclass(frozen=True)
class LogFitResult:
    """Outcome of a multistart log-space least-squares fit."""

    params: np.ndarray  #: best parameters (natural scale).
    cost: float  #: 0.5 * sum of squared residuals at the optimum.
    success: bool  #: whether any restart converged.
    n_restarts: int
    rms_residual: float  #: root-mean-square residual at the optimum.


def fit_log_params(
    residuals: _Map,
    x0: Sequence[float],
    *,
    jacobian: _Map,
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

    ``jacobian`` maps natural-scale ``theta`` to the
    ``(n_residuals, n_params)`` matrix ``d residuals / d theta``; the
    chain rule into log space (scaling column ``k`` by ``theta[k]``) is
    applied here.
    """
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

    def log_jacobian(log_theta: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            theta = np.exp(np.clip(log_theta, -500.0, 500.0))
            d_log = jacobian(theta) * theta
        return np.nan_to_num(d_log, nan=0.0, posinf=1e6, neginf=-1e6)

    best: tuple[float, np.ndarray, bool] | None = None
    log_x0 = np.log(x0)
    starts = [log_x0] + [
        log_x0 + rng.normal(0.0, perturbation, size=log_x0.shape)
        for _ in range(n_restarts - 1)
    ]
    for start in starts:
        try:
            x, cost, success = _trust_region(
                log_residuals, log_jacobian, start, max_nfev=max_nfev
            )
        except (ValueError, FloatingPointError):  # diverged restart
            continue
        if not np.all(np.isfinite(x)):
            continue
        # The theta the cost was computed at: exp() of an unclipped
        # far-negative x would round an energy to exactly 0.0.
        candidate = (float(cost), np.exp(np.clip(x, -500.0, 500.0)), success)
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


def _trust_region(
    fun: _Map, jac: _Map, x0: np.ndarray, *, max_nfev: int
) -> tuple[np.ndarray, float, bool]:
    """Minimise ``0.5 * ||fun(x)||**2``; return ``(x, cost, success)``.

    A port of ``trf_no_bounds`` in ``scipy/optimize/_lsq/trf.py`` with
    no bounds, unit ``x_scale``, linear loss, the "exact" subproblem,
    ftol = xtol = gtol = 1e-8 and ``max_nfev`` counted as scipy counts
    it.  ``success`` means a tolerance, not ``max_nfev``, stopped it.
    """
    x = x0.copy()
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the initial point")
    J = jac(x)
    nfev = 1
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    radius = np.linalg.norm(x0)
    if radius == 0:
        radius = 1.0
    alpha = 0.0  # Levenberg parameter, carried between subproblems
    converged = False
    while True:
        if np.linalg.norm(g, ord=np.inf) < _TOL:
            converged = True
        if converged or nfev >= max_nfev:
            break
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        uf = U.T.dot(f)
        reduction = -1.0
        while reduction <= 0 and nfev < max_nfev:
            step, alpha = _trust_region_step(uf, s, Vt.T, len(f), radius, alpha)
            Js = J.dot(step)
            predicted = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            x_new = x + step
            f_new = fun(x_new)
            nfev += 1
            step_norm = np.linalg.norm(step)
            if not np.all(np.isfinite(f_new)):
                radius = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            ratio = float(predicted == reduction == 0)
            if predicted > 0:
                ratio = reduction / predicted
            new_radius = radius
            if ratio < 0.25:
                new_radius = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * radius:
                new_radius = 2.0 * radius
            ftol_met = reduction < _TOL * cost and ratio > 0.25
            xtol_met = step_norm < _TOL * (_TOL + np.linalg.norm(x))
            if ftol_met or xtol_met:
                converged = True
                break
            alpha *= radius / new_radius
            radius = new_radius
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            g = J.T.dot(f)
    return x, float(cost), converged


def _trust_region_step(
    uf: np.ndarray, s: np.ndarray, V: np.ndarray, m: int, radius: float, alpha: float
) -> tuple[np.ndarray, float]:
    """Step and Levenberg parameter for ``J = U diag(s) V.T`` (``uf =
    U.T f``, ``m`` residuals) by Moré's method (Lecture Notes in
    Mathematics 630, 1977), as scipy's ``solve_lsq_trust_region``: the
    Gauss-Newton step if ``J`` has full rank and it fits, else at most
    10 Newton iterations (rtol 0.01) on ``||p(alpha)|| = radius``."""
    suf = s * uf

    def secular(alpha: float) -> tuple[float, float]:
        denom = s**2 + alpha
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - radius, -np.sum(suf**2 / denom**3) / p_norm

    full_rank = m >= V.shape[0] and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if np.linalg.norm(p) <= radius:
            return p, 0.0
    upper = np.linalg.norm(suf) / radius
    lower = 0.0
    if full_rank:
        phi, phi_prime = secular(0.0)
        lower = -phi / phi_prime
    elif alpha == 0:
        alpha = max(0.001 * upper, (lower * upper) ** 0.5)
    for _ in range(10):
        if alpha < lower or alpha > upper:
            alpha = max(0.001 * upper, (lower * upper) ** 0.5)
        phi, phi_prime = secular(alpha)
        if phi < 0:
            upper = alpha
        ratio = phi / phi_prime
        lower = max(lower, alpha - ratio)
        alpha -= (phi + radius) * ratio / radius
        if abs(phi) < 0.01 * radius:
            break
    p = -V.dot(suf / (s**2 + alpha))
    return p * (radius / np.linalg.norm(p)), alpha


def nonnegative_lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``min ||Ax - b||`` subject to ``x >= 0``.

    Used for the linear energy decomposition ``E ~ W*eps_flop +
    Q*eps_mem + T*pi1`` that seeds the nonlinear fit (all three
    coefficients are physical energies/powers and must be
    non-negative).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("A must be (n, k) and b (n,)")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("A and b must be finite")
    # Column scaling: nnls is sensitive to wildly different magnitudes.
    scales = np.linalg.norm(A, axis=0)
    # Exact sentinel: a column norm is 0.0 only for an all-zero column,
    # whose scale must stay exactly 1.  # archlint: disable=ARCH004
    scales[scales == 0.0] = 1.0
    return _lawson_hanson(A / scales, b) / scales


def _lawson_hanson(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson and Hanson's active-set NNLS (*Solving Least Squares
    Problems*, 1974, ch. 23), the algorithm of ``scipy.optimize.nnls``.
    A column enters only if its gradient entry exceeds rounding noise,
    it is numerically independent of the passive columns and it enters
    positive, so no subproblem is rank-deficient and nothing cycles.
    Raises ``RuntimeError`` if ``3 * n`` admissions do not converge."""
    m, n = A.shape
    column_norm = np.max(np.linalg.norm(A, axis=0), initial=0.0)
    tol = 10 * max(m, n) * _EPS * np.linalg.norm(b) * column_norm
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 1):
        w = A.T.dot(b - A.dot(x))
        for j in np.argsort(-w):
            if passive[j] or w[j] <= tol:
                continue
            trial = passive.copy()
            trial[j] = True
            z, rank = _passive_lstsq(A, b, trial)
            if rank == trial.sum() and z[j] > 0:
                passive = trial
                break
        else:
            return x
        while np.any(z[passive] <= 0):
            # Move from x towards z until the first passive entry hits
            # zero, and drop it with any other that reached zero.
            blocking = np.flatnonzero(passive & (z <= 0))
            ratios = x[blocking] / (x[blocking] - z[blocking])
            x = x + np.min(ratios) * (z - x)
            x[blocking[np.argmin(ratios)]] = 0.0
            passive &= x > 0
            z = _passive_lstsq(A, b, passive)[0]
        x = z
    raise RuntimeError("NNLS did not converge within its iteration cap")


def _passive_lstsq(
    A: np.ndarray, b: np.ndarray, passive: np.ndarray
) -> tuple[np.ndarray, int]:
    """Least squares on the passive columns (zero elsewhere), and their rank."""
    z = np.zeros(A.shape[1])
    z[passive], _, rank, _ = np.linalg.lstsq(A[:, passive], b, rcond=None)
    return z, int(rank)

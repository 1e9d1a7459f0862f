"""Parameter estimation from microbenchmark measurements.

This is the reproduction of the paper's fitting procedure (Section
V-A): run the microbenchmark suite at many ``(W, Q)`` points --
*including runs whose data fits in a given cache level and the
pointer-chase runs* -- measure time and energy, and recover the
platform parameter vector by nonlinear regression.  The paper fits
``tau_flop, tau_mem, eps_flop, eps_mem, pi1, delta_pi`` "as well as the
corresponding parameters for each cache level"; we do the same, once
for the prior *uncapped* model (no ``delta_pi``) and once for this
paper's *capped* model.

Estimation strategy
-------------------
1. **Time costs are anchored** to the best observed per-op times -- the
   sustained peaks of the dedicated peak/stream benchmarks (this is the
   prior model's construction, and what gives it its characteristic
   *over*-prediction on power-capped platforms: its roofline is built
   from peaks the cap does not let the machine sustain at mid
   intensities).  ``anchor_times=False`` frees them (an ablation).
2. **Seed energies** come from a non-negative linear solve (Lawson and
   Hanson's NNLS, :func:`repro.stats.regression.nonnegative_lstsq`) of
   ``E ~ W eps_flop + Q eps_mem + sum_l Q_l eps_l + A eps_rand + T pi1``
   (exactly linear in the unknowns).
3. **Refinement** minimises relative (log-space) residuals of predicted
   vs measured time *and* energy jointly, in log-parameter space with
   multistart (:func:`repro.stats.regression.fit_log_params`, on a
   numpy port of scipy's trust-region ``trf`` solver).  The
   optimiser gets the model's analytic Jacobian: each time residual
   follows the branch of the model's ``max()`` that attains it, so no
   residual evaluation is spent on finite differences.

``fit_cache_level`` and ``fit_random_access`` remain as standalone
single-level estimators (conditioning on a given ``pi1``), used for
cross-checks and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..stats.regression import fit_log_params, nonnegative_lstsq
from . import model
from .params import CacheLevelParams, MachineParams, RandomAccessParams

__all__ = [
    "FitObservations",
    "FitDiagnostics",
    "ModelFit",
    "fit_machine",
    "fit_cache_level",
    "fit_random_access",
]

_MIN_OBSERVATIONS = 8
#: Optimiser starts per fit: the seeded start plus five perturbed ones.
_N_RESTARTS = 6


@dataclass(frozen=True)
class FitObservations:
    """Measured samples for the joint fit.

    ``W``/``Q`` are the *known* work terms each run was constructed to
    perform (the benchmark writes its own loop); ``T``/``E`` are the
    measured wall time (s) and energy (J).  ``cache_traffic`` maps a
    cache level name to its per-run byte counts (zeros where a run did
    not touch that level); ``random_accesses`` counts dependent
    pointer-chase accesses per run.
    """

    W: np.ndarray
    Q: np.ndarray
    T: np.ndarray
    E: np.ndarray
    cache_traffic: Mapping[str, np.ndarray] = field(default_factory=dict)
    random_accesses: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("W", "Q", "T", "E"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        n = len(self.W)
        if any(len(getattr(self, name)) != n for name in ("Q", "T", "E")):
            raise ValueError("W, Q, T, E must have equal lengths")
        if n < _MIN_OBSERVATIONS:
            raise ValueError(
                f"need at least {_MIN_OBSERVATIONS} observations, got {n}"
            )
        if np.any(self.W < 0) or np.any(self.Q < 0):
            raise ValueError("W and Q must be non-negative")
        if np.any(self.T <= 0) or np.any(self.E <= 0):
            raise ValueError("T and E must be positive")
        if not np.any(self.W > 0) or not np.any(self.Q > 0):
            raise ValueError("the sweep must include both flops and traffic")
        traffic = {}
        for level, values in dict(self.cache_traffic).items():
            arr = np.asarray(values, dtype=float)
            if len(arr) != n:
                raise ValueError(f"cache_traffic[{level!r}] length mismatch")
            if np.any(arr < 0):
                raise ValueError(f"cache_traffic[{level!r}] must be non-negative")
            if not np.any(arr > 0):
                raise ValueError(f"cache_traffic[{level!r}] is all zero")
            traffic[level] = arr
        object.__setattr__(self, "cache_traffic", MappingProxyType(traffic))
        if self.random_accesses is not None:
            arr = np.asarray(self.random_accesses, dtype=float)
            if len(arr) != n:
                raise ValueError("random_accesses length mismatch")
            if np.any(arr < 0):
                raise ValueError("random_accesses must be non-negative")
            if not np.any(arr > 0):
                arr = None
            object.__setattr__(self, "random_accesses", arr)

    # The MappingProxyType wrapper cannot be pickled, and fit inputs
    # cross process boundaries inside parallel-campaign shard results.

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["cache_traffic"] = dict(self.cache_traffic)
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        state["cache_traffic"] = MappingProxyType(dict(state["cache_traffic"]))
        self.__dict__.update(state)

    @property
    def n(self) -> int:
        return len(self.W)

    @property
    def levels(self) -> tuple[str, ...]:
        """Cache level names, in sorted order (the fit's theta layout)."""
        return tuple(sorted(self.cache_traffic))

    @property
    def has_random(self) -> bool:
        return self.random_accesses is not None

    @property
    def intensity(self) -> np.ndarray:
        """``W/Q`` per sample (inf where Q is zero)."""
        with np.errstate(divide="ignore"):
            return np.where(self.Q > 0, self.W / np.maximum(self.Q, 1e-300), np.inf)


@dataclass(frozen=True)
class FitDiagnostics:
    """Goodness-of-fit summary of one model fit."""

    rms_log_residual: float  #: RMS of log(pred/meas) over time+energy.
    max_abs_rel_error_time: float
    max_abs_rel_error_energy: float
    n_observations: int
    converged: bool


@dataclass(frozen=True)
class _Anchors:
    """Per-op times pinned from the best observed rates."""

    tau_flop: float
    tau_mem: float
    tau_levels: tuple[float, ...]  #: aligned with FitObservations.levels.
    tau_rand: float | None

    def memory_time(self, obs: FitObservations, tau_mem: float) -> np.ndarray:
        """Memory-side time per observation: DRAM traffic at
        ``tau_mem``, cache and pointer-chase traffic at their anchored
        per-op times."""
        t_mem = obs.Q * tau_mem
        for level, tau_l in zip(obs.levels, self.tau_levels):
            t_mem = t_mem + obs.cache_traffic[level] * tau_l
        if obs.has_random:
            t_mem = t_mem + obs.random_accesses * self.tau_rand
        return t_mem

    def roofline_time(
        self, obs: FitObservations, tau_flop: float, tau_mem: float
    ) -> np.ndarray:
        """The uncapped model time ``max(W tau_flop, memory time)``."""
        return np.maximum(obs.W * tau_flop, self.memory_time(obs, tau_mem))


def _compute_anchors(obs: FitObservations) -> _Anchors:
    w_pos = obs.W > 0
    q_pos = obs.Q > 0
    tau_levels = []
    for level in obs.levels:
        ql = obs.cache_traffic[level]
        mask = ql > 0
        tau_levels.append(float(np.min(obs.T[mask] / ql[mask])))
    tau_rand = None
    if obs.has_random:
        a = obs.random_accesses
        mask = a > 0
        tau_rand = float(np.min(obs.T[mask] / a[mask]))
    return _Anchors(
        tau_flop=float(np.min(obs.T[w_pos] / obs.W[w_pos])),
        tau_mem=float(np.min(obs.T[q_pos] / obs.Q[q_pos])),
        tau_levels=tuple(tau_levels),
        tau_rand=tau_rand,
    )


@dataclass(frozen=True)
class _Theta:
    """Unpacked parameter vector of the joint fit."""

    tau_flop: float
    tau_mem: float
    eps_flop: float
    eps_mem: float
    pi1: float
    delta_pi: float  #: inf for the uncapped model.
    eps_levels: tuple[float, ...]
    eps_rand: float | None
    anchors: _Anchors

    def dynamic_energy(self, obs: FitObservations) -> np.ndarray:
        """Dynamic (above-constant) energy per observation."""
        e_dyn = obs.W * self.eps_flop + obs.Q * self.eps_mem
        for level, eps_l in zip(obs.levels, self.eps_levels):
            e_dyn = e_dyn + obs.cache_traffic[level] * eps_l
        if obs.has_random:
            e_dyn = e_dyn + obs.random_accesses * self.eps_rand
        return e_dyn

    def time(
        self,
        obs: FitObservations,
        e_dyn: np.ndarray,
        floor: np.ndarray | None = None,
    ) -> np.ndarray:
        """Model time given the dynamic energy: the roofline time
        (``floor`` when given), raised to ``e_dyn / delta_pi`` where the
        cap binds."""
        if floor is None:
            floor = self.anchors.roofline_time(obs, self.tau_flop, self.tau_mem)
        if not np.isfinite(self.delta_pi):
            return floor
        return np.maximum(floor, e_dyn / self.delta_pi)

    def predict(self, obs: FitObservations) -> tuple[np.ndarray, np.ndarray]:
        """Model time and energy for every observation (self-contained:
        the energy term uses the *model's* time)."""
        e_dyn = self.dynamic_energy(obs)
        t = self.time(obs, e_dyn)
        e = e_dyn + self.pi1 * t
        return t, e


@dataclass(frozen=True, eq=False)
class ModelFit:
    """A fitted parameter vector plus provenance.

    ``params`` carries the headline Table I quantities (including
    per-level and random-access energies); prediction methods evaluate
    the exact model that was fit.  Frozen because fits ride the shard
    pool inside :class:`~repro.microbench.suite.FittedPlatform` -- a
    mutable fit mutated on one side of a pickle boundary would
    silently diverge from its twin (ARCH011).
    """

    params: MachineParams
    capped: bool
    diagnostics: FitDiagnostics
    theta: _Theta

    def predict(self, obs: FitObservations) -> tuple[np.ndarray, np.ndarray]:
        """Model ``(time, energy)`` for a set of observations."""
        return self.theta.predict(obs)

    def predict_time(self, W, Q):
        """Model time for DRAM-only work (s)."""
        return model.time(self.params, W, Q, capped=self.capped)

    def predict_energy(self, W, Q):
        """Model energy for DRAM-only work (J)."""
        return model.energy(self.params, W, Q, capped=self.capped)

    def relative_errors(self, obs: FitObservations) -> dict[str, np.ndarray]:
        """Signed relative errors ``(model - measured)/measured`` for
        time, energy, performance and average power -- Fig. 4's error
        metric (performance) among them.  Performance errors only exist
        for flop-bearing runs; note ``(W/T_hat - W/T)/(W/T)`` reduces to
        ``(T - T_hat)/T_hat``."""
        t_hat, e_hat = self.predict(obs)
        power_hat = e_hat / t_hat
        power = obs.E / obs.T
        has_flops = obs.W > 0
        return {
            "time": (t_hat - obs.T) / obs.T,
            "energy": (e_hat - obs.E) / obs.E,
            "performance": (obs.T[has_flops] - t_hat[has_flops]) / t_hat[has_flops],
            "power": (power_hat - power) / power,
        }


def _energy_columns(obs: FitObservations) -> list[np.ndarray]:
    """Per-run op counts multiplying each marginal energy in the
    dynamic energy: W, Q, each cache level's traffic, [accesses]."""
    columns = [obs.W, obs.Q]
    for level in obs.levels:
        columns.append(obs.cache_traffic[level])
    if obs.has_random:
        columns.append(obs.random_accesses)
    return columns


def _median(values: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array, bit for bit (the mean of the
    two middle values is their sum halved), without its NaN check,
    which imports ``numpy.ma`` into every fitting process."""
    ordered = np.sort(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return float((ordered[middle - 1] + ordered[middle]) / 2)


def _seed_energies(obs: FitObservations) -> tuple[np.ndarray, float]:
    """Linear seeds: (eps_f, eps_m, [eps_l...], [eps_rand], pi1), plus a
    delta_pi seed.

    A non-negative least squares over all runs provides ``pi1``; each
    marginal energy is then seeded *directly* from the runs dominated
    by its component (``(E - pi1*T) / ops`` over runs where only that
    component is active, when such runs exist -- the suite's dedicated
    peak / stream / cache / chase benchmarks).  Direct seeding avoids
    the NNLS corner solutions whose zero coefficients would strand the
    log-space optimiser at a vanishing gradient.
    """
    columns = _energy_columns(obs)
    columns.append(obs.T)
    A = np.column_stack(columns)
    coeffs = nonnegative_lstsq(A, obs.E)

    # pi1 cannot exceed the lowest observed average power.
    power_floor = float(np.min(obs.E / obs.T))
    pi1 = float(min(max(coeffs[-1], 1e-3 * power_floor), 0.999 * power_floor))

    op_columns = columns[:-1]
    active = np.column_stack([col > 0 for col in op_columns])
    seeds = []
    for j, col in enumerate(op_columns):
        pure = active[:, j] & (active.sum(axis=1) == 1)
        rows = pure if np.any(pure) else (col > 0)
        direct = _median((obs.E[rows] - pi1 * obs.T[rows]) / col[rows])
        fallback = 0.05 * _median(obs.E[rows] / col[rows])
        seeds.append(direct if direct > 0 else max(fallback, 1e-300))
    seeds.append(pi1)
    coeffs = np.asarray(seeds)
    dyn = A[:, :-1] @ coeffs[:-1]
    dpi0 = max(float(np.max(dyn / obs.T)), 1e-6)
    return coeffs, dpi0


class _Objective:
    """The joint fit's residuals and their analytic Jacobian.

    ``theta`` is laid out as ``[tau_flop, tau_mem]`` (free times only),
    the marginal energies in :func:`_energy_columns` order, ``pi1``,
    then ``delta_pi`` (capped model only).  The residuals are the
    log-ratios of predicted to measured time, then of energy.

    :meth:`residuals` and :meth:`jacobian` take a ``(k, p)`` stack of
    such rows, as :func:`~repro.stats.regression.fit_log_params` passes
    them, and compute each row elementwise over the leading axis, in
    the operation order :meth:`_Theta.predict` uses for one row.
    """

    def __init__(
        self, obs: FitObservations, *, capped: bool, anchor_times: bool
    ) -> None:
        self.obs = obs
        self.capped = capped
        self.anchor_times = anchor_times
        self.anchors = _compute_anchors(obs)
        self.columns = _energy_columns(obs)
        self.energy_columns = np.column_stack(self.columns)
        first = 0 if anchor_times else 2
        self.energies = slice(first, first + len(self.columns))
        self.pi1 = self.energies.stop
        # With anchored per-op times the roofline floor of the time model
        # does not depend on theta: computed once per fit.
        self.floor = None
        if anchor_times:
            a = self.anchors
            self.floor = a.roofline_time(obs, a.tau_flop, a.tau_mem)

    def unpack(self, theta: np.ndarray) -> _Theta:
        obs, anchors = self.obs, self.anchors
        idx = self.energies.start
        if self.anchor_times:
            tau_f, tau_m = anchors.tau_flop, anchors.tau_mem
        else:
            tau_f, tau_m = theta[0], theta[1]
        eps_f, eps_m = theta[idx], theta[idx + 1]
        idx += 2
        n_levels = len(obs.levels)
        eps_levels = tuple(theta[idx : idx + n_levels])
        idx += n_levels
        eps_rand = None
        if obs.has_random:
            eps_rand = float(theta[idx])
            idx += 1
        pi1 = float(theta[idx])
        idx += 1
        dpi = float(theta[idx]) if self.capped else np.inf
        return _Theta(
            tau_flop=float(tau_f),
            tau_mem=float(tau_m),
            eps_flop=float(eps_f),
            eps_mem=float(eps_m),
            pi1=pi1,
            delta_pi=dpi,
            eps_levels=eps_levels,
            eps_rand=eps_rand,
            anchors=anchors,
        )

    def _dynamic_energy(self, theta: np.ndarray) -> np.ndarray:
        """``(k, n)``: :meth:`_Theta.dynamic_energy` of every row."""
        first = self.energies.start
        w, q, *rest = self.columns
        e_dyn = w * theta[:, first, None] + q * theta[:, first + 1, None]
        for j, column in enumerate(rest, start=first + 2):
            e_dyn = e_dyn + column * theta[:, j, None]
        return e_dyn

    def _roofline(self, theta: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(floor, t_flop, t_mem)``, each ``(k, n)``, for free per-op
        times (:meth:`_Anchors.roofline_time` of every row)."""
        obs = self.obs
        t_flop = obs.W * theta[:, 0, None]
        t_mem = self.anchors.memory_time(obs, theta[:, 1, None])
        return np.maximum(t_flop, t_mem), t_flop, t_mem

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        obs, n = self.obs, self.obs.n
        e_dyn = self._dynamic_energy(theta)
        floor = self.floor
        if not self.anchor_times:
            floor = self._roofline(theta)[0]
        ratios = np.empty((len(theta), 2 * n))
        if self.capped:
            t_hat = np.maximum(floor, e_dyn / theta[:, -1, None])
            np.divide(t_hat, obs.T, out=ratios[:, :n])
        else:
            np.divide(floor, obs.T, out=ratios[:, :n])
        # The constant-power term is charged over the run's *measured*
        # time: this decouples the energy decomposition from any bias
        # in the time anchors -- operationally it is what
        # ``E = W eps_flop + Q eps_mem + pi1 T`` means for a measured run.
        e_hat = e_dyn + theta[:, self.pi1, None] * obs.T
        np.divide(e_hat, obs.E, out=ratios[:, n:])
        # One log over the C-contiguous block: a strided input may take
        # another ufunc loop than a single row does, and round otherwise.
        return np.log(ratios, out=ratios)

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        """``d residuals / d theta`` on the natural scale, ``(k, 2n, p)``.

        Energy rows differentiate ``log(e_dyn + pi1 T)``.  A time row
        follows the branch of the ``max()`` that attains it: the cap
        ``e_dyn / delta_pi``, else (free times only) the flop or the
        memory term; anchored roofline rows do not depend on theta.
        """
        obs, n = self.obs, self.obs.n
        e_dyn = self._dynamic_energy(theta)
        e_hat = e_dyn + theta[:, self.pi1, None] * obs.T
        jac = np.zeros((len(theta), 2 * n, theta.shape[1]))
        jac[:, n:, self.energies] = self.energy_columns / e_hat[:, :, None]
        jac[:, n:, self.pi1] = obs.T / e_hat
        time_rows = jac[:, :n]
        floor = self.floor
        if not self.anchor_times:
            floor, t_flop, t_mem = self._roofline(theta)
        # Each branch divides on every row; np.where keeps the rows
        # whose max() that branch attains.
        cap_bound = np.zeros(e_dyn.shape, dtype=bool)
        if self.capped:
            delta_pi = theta[:, -1, None]
            cap_bound = e_dyn / delta_pi > floor
            time_rows[..., self.energies] = np.where(
                cap_bound[..., None], self.energy_columns / e_dyn[..., None], 0.0
            )
            time_rows[..., -1] = np.where(cap_bound, -1.0 / delta_pi, 0.0)
        if not self.anchor_times:
            flop_bound = ~cap_bound & (t_flop >= t_mem)
            mem_bound = ~cap_bound & ~flop_bound
            # 0/0 on the rows without flops, or without memory traffic.
            with np.errstate(divide="ignore", invalid="ignore"):
                time_rows[..., 0] = np.where(flop_bound, obs.W / t_flop, 0.0)
                time_rows[..., 1] = np.where(mem_bound, obs.Q / t_mem, 0.0)
        return jac


def fit_machine(
    obs: FitObservations,
    *,
    capped: bool = True,
    anchor_times: bool = True,
    name: str = "fitted",
    rng: np.random.Generator | None = None,
) -> ModelFit:
    """Fit the capped or uncapped model jointly over all observations.

    Residuals are log-ratios of predicted to measured time and energy,
    stacked with equal weight -- relative errors, since the sweep spans
    orders of magnitude in both quantities.  The optimiser gets the
    model's analytic Jacobian.
    """
    objective = _Objective(obs, capped=capped, anchor_times=anchor_times)
    anchors = objective.anchors
    seeds, dpi0 = _seed_energies(obs)
    # seeds layout: eps_f, eps_m, [levels...], [rand], pi1
    n_levels = len(obs.levels)
    n_extra = n_levels + (1 if obs.has_random else 0)

    energy_seed = list(seeds[: 2 + n_extra]) + [seeds[-1]]
    if anchor_times:
        x0 = energy_seed + ([dpi0] if capped else [])
    else:
        x0 = [anchors.tau_flop, anchors.tau_mem] + energy_seed + (
            [dpi0] if capped else []
        )

    result = fit_log_params(
        objective.residuals,
        x0,
        jacobian=objective.jacobian,
        n_restarts=_N_RESTARTS,
        rng=rng,
    )
    theta = objective.unpack(result.params)

    caches = tuple(
        CacheLevelParams(name=level, eps_byte=eps_l, bandwidth=1.0 / tau_l)
        for level, eps_l, tau_l in zip(
            obs.levels, theta.eps_levels, anchors.tau_levels
        )
    )
    random = None
    if obs.has_random:
        random = RandomAccessParams(
            eps_access=theta.eps_rand, rate=1.0 / anchors.tau_rand
        )
    params = MachineParams(
        name=name,
        tau_flop=theta.tau_flop,
        tau_mem=theta.tau_mem,
        eps_flop=theta.eps_flop,
        eps_mem=theta.eps_mem,
        pi1=theta.pi1,
        delta_pi=theta.delta_pi,
        caches=caches,
        random=random,
        description=f"fitted ({'capped' if capped else 'uncapped'} model, "
        f"{obs.n} observations)",
    )

    t_hat, e_hat = theta.predict(obs)
    diagnostics = FitDiagnostics(
        rms_log_residual=result.rms_residual,
        max_abs_rel_error_time=float(np.max(np.abs(t_hat - obs.T) / obs.T)),
        max_abs_rel_error_energy=float(np.max(np.abs(e_hat - obs.E) / obs.E)),
        n_observations=obs.n,
        converged=result.success,
    )
    return ModelFit(params=params, capped=capped, diagnostics=diagnostics, theta=theta)


def fit_cache_level(
    name: str,
    Q: np.ndarray,
    T: np.ndarray,
    E: np.ndarray,
    *,
    pi1: float,
    flops: np.ndarray | None = None,
    eps_flop: float = 0.0,
    capacity: int | None = None,
) -> CacheLevelParams:
    """Standalone estimate of one cache level's energy and bandwidth.

    From cache-resident streaming runs: bandwidth is the fastest
    observed ``Q/T``; the inclusive per-byte energy is the median of
    ``(E - pi1*T - W*eps_flop) / Q`` (``pi1`` and ``eps_flop`` supplied
    by a main fit).  Used as a cross-check on the joint fit.
    """
    Q = np.asarray(Q, dtype=float)
    T = np.asarray(T, dtype=float)
    E = np.asarray(E, dtype=float)
    if not (len(Q) == len(T) == len(E)) or len(Q) == 0:
        raise ValueError("Q, T, E must be non-empty and equal length")
    if np.any(Q <= 0) or np.any(T <= 0):
        raise ValueError("Q and T must be positive")
    W = np.zeros_like(Q) if flops is None else np.asarray(flops, dtype=float)
    dynamic = E - pi1 * T - W * eps_flop
    eps = float(np.median(dynamic / Q))
    if eps <= 0:
        raise ValueError(
            f"non-positive marginal energy for level {name!r}; "
            "pi1 from the main fit is likely inconsistent with these runs"
        )
    bandwidth = float(np.max(Q / T))
    return CacheLevelParams(
        name=name, eps_byte=eps, bandwidth=bandwidth, capacity=capacity
    )


def fit_random_access(
    accesses: np.ndarray,
    T: np.ndarray,
    E: np.ndarray,
    *,
    pi1: float,
) -> RandomAccessParams:
    """Standalone estimate of random-access energy and rate from
    pointer-chase runs: ``eps_rand = median((E - pi1*T)/A)``,
    ``rate = max(A/T)``.  Used as a cross-check on the joint fit."""
    A = np.asarray(accesses, dtype=float)
    T = np.asarray(T, dtype=float)
    E = np.asarray(E, dtype=float)
    if not (len(A) == len(T) == len(E)) or len(A) == 0:
        raise ValueError("accesses, T, E must be non-empty and equal length")
    if np.any(A <= 0) or np.any(T <= 0):
        raise ValueError("accesses and T must be positive")
    dynamic = E - pi1 * T
    eps = float(np.median(dynamic / A))
    if eps <= 0:
        raise ValueError(
            "non-positive random-access energy; pi1 inconsistent with runs"
        )
    return RandomAccessParams(eps_access=eps, rate=float(np.max(A / T)))

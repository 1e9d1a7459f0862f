"""Differential tests for the joint fit's analytic Jacobian.

Two contracts:

* at random ``theta``, the Jacobian ``fit_machine`` hands the optimiser
  equals central finite differences of its residuals (rtol 1e-6), for
  the capped and uncapped model with anchored and free per-op times;
  ``theta`` is drawn so time rows sit on both sides of the cap and no
  row lies near a kink of the model's ``max()``;
* fits made with the Jacobian agree with scipy's trf fits on 2-point
  finite-difference Jacobians (a test-only oracle,
  :mod:`tests.stats.scipy_oracle`) within 1e-6 relative on every Table I
  field the data pins, on scaled-down campaigns of all twelve platforms.
"""

import functools
import math

import numpy as np
import pytest

from repro.core import fitting
from repro.machine.platforms import PLATFORM_IDS
from repro.microbench.campaign import CampaignSettings, fit_platform
from repro.microbench.suite import fit_campaign

from ..stats.scipy_oracle import scipy_fit_log_params

#: Log-space step of the central differences.
STEP = 1e-5
#: Smallest |log| distance from any max() kink a drawn theta may have.
KINK_MARGIN = 1e-3


@pytest.fixture(scope="module")
def fitted_platforms():
    settings = CampaignSettings().scaled_down()
    return {pid: fit_platform(pid, settings) for pid in PLATFORM_IDS}


def pack(model_theta, objective) -> np.ndarray:
    """The fit vector of an unpacked theta (see ``_Objective``'s layout)."""
    values = []
    if not objective.anchor_times:
        values += [model_theta.tau_flop, model_theta.tau_mem]
    values += [model_theta.eps_flop, model_theta.eps_mem, *model_theta.eps_levels]
    if objective.obs.has_random:
        values.append(model_theta.eps_rand)
    values.append(model_theta.pi1)
    if objective.capped:
        values.append(model_theta.delta_pi)
    return np.asarray(values, dtype=float)


def branch_gaps(objective, theta):
    """Per time row: log distance from the nearest max() kink, and
    whether the cap branch attains the max."""
    obs = objective.obs
    model_theta = objective.unpack(theta)
    t_flop = obs.W * model_theta.tau_flop
    t_mem = objective.anchors.memory_time(obs, model_theta.tau_mem)
    floor = np.maximum(t_flop, t_mem)
    gaps = np.full(obs.n, np.inf)
    cap_bound = np.zeros(obs.n, dtype=bool)
    if objective.capped:
        t_cap = model_theta.dynamic_energy(obs) / model_theta.delta_pi
        gaps = np.abs(np.log(t_cap / floor))
        cap_bound = t_cap > floor
    if not objective.anchor_times:
        with np.errstate(divide="ignore"):
            flop_gap = np.abs(np.log(t_flop / t_mem))
        gaps = np.minimum(gaps, np.where(cap_bound, np.inf, flop_gap))
    return gaps, cap_bound


def draw_theta(objective, center, rng):
    """A random theta off every kink, with cap-bound and roofline-bound
    time rows both present for the capped model."""
    for _ in range(500):
        theta = center * np.exp(rng.normal(0.0, 0.5, size=center.shape))
        gaps, cap_bound = branch_gaps(objective, theta)
        if np.min(gaps) < KINK_MARGIN:
            continue
        if objective.capped and not (0 < cap_bound.sum() < objective.obs.n):
            continue
        return theta
    raise AssertionError("no admissible theta drawn")


def central_differences(residuals, theta):
    """``d residuals / d log(theta)`` by central differences."""
    columns = []
    for k in range(len(theta)):
        bump = np.zeros(len(theta))
        bump[k] = STEP
        up = residuals(theta * np.exp(bump))
        down = residuals(theta * np.exp(-bump))
        columns.append((up - down) / (2.0 * STEP))
    return np.column_stack(columns)


@pytest.mark.parametrize("platform_id", ["gtx-titan", "nuc-gpu", "arndale-gpu"])
@pytest.mark.parametrize("anchor_times", [True, False], ids=["anchored", "free"])
@pytest.mark.parametrize("capped", [True, False], ids=["capped", "uncapped"])
def test_jacobian_matches_central_differences(
    fitted_platforms, platform_id, capped, anchor_times
):
    obs = fitted_platforms[platform_id].fit_observations
    objective = fitting._Objective(obs, capped=capped, anchor_times=anchor_times)
    fit = fitting.fit_machine(obs, capped=capped, anchor_times=anchor_times)
    center = pack(fit.theta, objective)
    assert objective.unpack(center) == fit.theta
    rng = np.random.default_rng(7)
    for _ in range(5):
        theta = draw_theta(objective, center, rng)
        # Chain rule into log space, as fit_log_params applies it.
        analytic = objective.jacobian(theta) * theta
        numeric = central_differences(objective.residuals, theta)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


def table_fields(params) -> dict[str, float | None]:
    fields = {
        name: getattr(params, name)
        for name in (
            "tau_flop",
            "tau_mem",
            "eps_flop",
            "eps_mem",
            "pi1",
            "delta_pi",
            "tau_flop_double",
            "eps_flop_double",
        )
    }
    for level in params.caches:
        fields[f"{level.name}.eps_byte"] = level.eps_byte
        fields[f"{level.name}.bandwidth"] = level.bandwidth
    if params.random is not None:
        fields["random.eps_access"] = params.random.eps_access
        fields["random.rate"] = params.random.rate
    return fields


def energy_shares(params, obs) -> dict[str, float]:
    """Per marginal energy: the largest share of any run's measured
    energy it accounts for."""
    columns = {"eps_flop": obs.W, "eps_mem": obs.Q}
    for level in obs.levels:
        columns[f"{level}.eps_byte"] = obs.cache_traffic[level]
    if obs.has_random:
        columns["random.eps_access"] = obs.random_accesses
    fields = table_fields(params)
    return {
        name: float(np.max(fields[name] * column / obs.E))
        for name, column in columns.items()
    }


#: A marginal energy explaining less than this share of every run's
#: energy in both fits is not pinned by the data: the optimiser drives
#: it towards zero and stops wherever its tolerances say, so only its
#: insignificance is compared.  (Scaled-down xeon-phi's random-access
#: energy is one: ~1e-9 of any run's energy.)
UNIDENTIFIED_SHARE = 1e-6


def assert_fields_agree(got_params, want_params, obs, *, rtol=1e-6):
    """Every Table I field of two fits of ``obs`` agrees within ``rtol``,
    except marginal energies that neither fit pins."""
    want = table_fields(want_params)
    got = table_fields(got_params)
    assert got.keys() == want.keys()
    shares = energy_shares(got_params, obs)
    want_shares = energy_shares(want_params, obs)
    for name, value in want.items():
        if value is None or math.isinf(value):
            assert got[name] == value, name
        elif max(shares.get(name, 1.0), want_shares.get(name, 1.0)) < (
            UNIDENTIFIED_SHARE
        ):
            continue
        else:
            assert abs(got[name] - value) <= rtol * abs(value), (
                f"{name}: {got[name]!r} vs {value!r}"
            )


@pytest.mark.parametrize("platform_id", PLATFORM_IDS)
def test_fits_agree_with_finite_difference_fits(
    fitted_platforms, platform_id, monkeypatch
):
    fitted = fitted_platforms[platform_id]
    seed = CampaignSettings().seed + 1
    analytic = fit_campaign(fitted.campaign, rng=np.random.default_rng(seed))
    monkeypatch.setattr(
        fitting,
        "fit_log_params",
        functools.partial(scipy_fit_log_params, two_point=True),
    )
    numeric = fit_campaign(fitted.campaign, rng=np.random.default_rng(seed))
    assert_fields_agree(
        analytic.fitted_params, numeric.fitted_params, fitted.fit_observations
    )

"""Golden regression fixtures for the end-to-end campaign-and-fit path.

``tests/data/golden_fits.json`` pins the fitted Table-I constants for
two platforms under a reduced, fully-seeded campaign.  Any change that
perturbs the measurement pipeline -- sampler, estimator, calibration,
fitting -- shows up here as a drift beyond the documented tolerance,
even when the looser accuracy tests still pass.

Regenerate deliberately (after an intentional pipeline change) with::

    PYTHONPATH=src python -m pytest tests/test_golden_fits.py --update-golden

and review the diff of the JSON like any other code change.
"""

import json
from pathlib import Path

import pytest

from repro.microbench.campaign import CampaignSettings, fit_platform

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_fits.json"
PLATFORMS = ("gtx-titan", "xeon-phi")
#: Relative tolerance of every comparison.  The campaign is seeded and
#: deterministic, so on one BLAS/numpy stack the values reproduce
#: exactly; the headroom absorbs cross-version floating-point drift in
#: the optimiser without masking real pipeline changes.
RTOL = 1e-5

FIELDS = (
    "tau_flop",
    "tau_mem",
    "eps_flop",
    "eps_mem",
    "pi1",
    "delta_pi",
)


def compute_entry(platform_id: str) -> dict:
    fit = fit_platform(platform_id, CampaignSettings().scaled_down())
    params = fit.capped.params
    entry = {name: getattr(params, name) for name in FIELDS}
    entry["n_runs"] = fit.campaign.n_runs
    entry["sustained_flops"] = fit.sustained_flops
    entry["sustained_bandwidth"] = fit.sustained_bandwidth
    return entry


@pytest.fixture(scope="module")
def computed():
    return {pid: compute_entry(pid) for pid in PLATFORMS}


@pytest.fixture(scope="module", autouse=True)
def maybe_update(request, computed):
    if request.config.getoption("--update-golden"):
        payload = {
            "_meta": {
                "description": "Golden campaign fits; regenerate with "
                "pytest tests/test_golden_fits.py --update-golden",
                "settings": "CampaignSettings().scaled_down() (seed 2014)",
                "rtol": RTOL,
            },
            "fits": computed,
        }
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"{GOLDEN_PATH} is missing; generate it with "
            f"pytest tests/test_golden_fits.py --update-golden"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("platform_id", PLATFORMS)
def test_fit_matches_golden(platform_id, computed, golden):
    expected = golden["fits"][platform_id]
    actual = computed[platform_id]
    assert actual["n_runs"] == expected["n_runs"]
    for name, want in expected.items():
        if name == "n_runs":
            continue
        # abs=0: approx's default abs=1e-12 exceeds tau_flop (~2.4e-13)
        # and is a quarter of tau_mem, which would leave both unchecked.
        rtol = golden["_meta"]["rtol"]
        assert actual[name] == pytest.approx(want, rel=rtol, abs=0), (
            f"{platform_id}.{name} drifted: {actual[name]!r} vs "
            f"golden {want!r}"
        )


def test_golden_covers_expected_platforms(golden):
    assert set(golden["fits"]) == set(PLATFORMS)

"""Registry of all experiment reproductions.

Maps experiment ids (matching DESIGN.md's experiment index) to the
module that reproduces each one.  The registry itself imports no
experiment: :func:`run_experiment` imports an experiment's module only
when that experiment runs, so ``archline list`` and the parser read
the ids and titles for free.  ``run_experiment`` shares campaign fits
between the experiments that need them, so ``run_all`` executes each
platform's microbenchmark campaign exactly once.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..microbench.suite import CampaignSettings, FittedPlatform
    from .base import ExperimentResult

__all__ = ["ExperimentSpec", "EXPERIMENTS", "run_experiment", "run_all"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment."""

    experiment_id: str
    title: str
    paper_artifact: str  #: which table/figure/section it reproduces.
    needs_campaigns: bool  #: whether it consumes the full campaign fits.
    #: the :mod:`repro.experiments` module whose ``run`` reproduces it;
    #: ``run(fits=...)`` when it needs campaigns, ``run()`` otherwise.
    module: str


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "table1",
            "Platform summary: fitted constants vs Table I",
            "Table I",
            True,
            "table1",
        ),
        ExperimentSpec(
            "fig1",
            "GTX Titan vs Arndale GPU building blocks",
            "Fig. 1",
            False,
            "fig1",
        ),
        ExperimentSpec(
            "fig4",
            "Capped vs uncapped model error distributions",
            "Fig. 4",
            True,
            "fig4",
        ),
        ExperimentSpec(
            "fig5",
            "Normalised power vs intensity (12 panels)",
            "Fig. 5",
            False,
            "fig5",
        ),
        ExperimentSpec(
            "fig6",
            "Power under reduced caps",
            "Fig. 6",
            False,
            "fig6",
        ),
        ExperimentSpec(
            "fig7",
            "Performance and energy-efficiency under reduced caps",
            "Fig. 7a/7b",
            False,
            "fig7",
        ),
        ExperimentSpec(
            "vb",
            "Memory-hierarchy energy interpretation",
            "Section V-B",
            True,
            "section_vb",
        ),
        ExperimentSpec(
            "vc",
            "Constant power across platforms",
            "Section V-C",
            False,
            "section_vc",
        ),
        ExperimentSpec(
            "vd",
            "Power throttling and bounding scenarios",
            "Section V-D",
            False,
            "section_vd",
        ),
        ExperimentSpec(
            "vi",
            "Irregular workloads: the Xeon Phi remark (extension)",
            "Section VI",
            False,
            "section_vi",
        ),
    )
}


def run_experiment(
    experiment_id: str,
    *,
    fits: dict[str, FittedPlatform] | None = None,
    settings: CampaignSettings | None = None,
) -> ExperimentResult:
    """Run one experiment by id, computing campaigns only if needed."""
    try:
        spec = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(EXPERIMENTS)}"
        ) from None
    module = importlib.import_module(f".{spec.module}", __package__)
    if not spec.needs_campaigns:
        return module.run()
    if fits is None:
        from .common import run_all_fits

        fits = run_all_fits(settings)
    return module.run(fits=fits)


def run_all(
    settings: CampaignSettings | None = None,
) -> dict[str, ExperimentResult]:
    """Run every registered experiment, sharing one campaign pass."""
    from .common import run_all_fits

    fits = run_all_fits(settings)
    return {
        eid: run_experiment(eid, fits=fits, settings=settings)
        for eid in EXPERIMENTS
    }

"""Reproductions of every table and figure in the paper's evaluation.

One module per artifact (``table1``, ``fig1`` .. ``fig7``,
``section_vb`` .. ``section_vd``), a shared campaign runner
(:mod:`~repro.experiments.common`), the embedded paper values
(:mod:`~repro.experiments.paper_reference`) and a registry for the CLI
(:mod:`~repro.experiments.registry`).
"""

from . import (
    fig1,
    fig4,
    fig5,
    fig6,
    fig7,
    section_vb,
    section_vc,
    section_vd,
    section_vi,
    table1,
)
from .base import ExperimentResult
from .common import CampaignSettings, run_all_fits
from .registry import EXPERIMENTS, ExperimentSpec, run_all, run_experiment

__all__ = [
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "section_vb",
    "section_vc",
    "section_vd",
    "section_vi",
    "table1",
    "ExperimentResult",
    "CampaignSettings",
    "run_all_fits",
    "EXPERIMENTS",
    "ExperimentSpec",
    "run_all",
    "run_experiment",
]

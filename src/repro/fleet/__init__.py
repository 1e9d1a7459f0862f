"""Fleet/procurement optimization under power & cost budgets.

Given a workload histogram, a rack power budget and
per-node prices, pick the integer platform mix that minimises
energy-to-solution or procurement cost -- the "which building block,
and how many" question the paper's single-node analysis sets up.
docs/FLEET.md walks through the formulation; ``archline fleet`` is the
CLI front end.
"""

from .evaluate import (
    BinOnPlatform,
    EvaluationMatrix,
    FleetExclusion,
    evaluate_fleet,
)
from .offers import DEFAULT_UNIT_COSTS, PlatformOffer, default_offer
from .report import fleet_report, render_fleet
from .solver import (
    FleetAllocation,
    FleetInstance,
    FleetSolution,
    allocations,
    solve,
    solve_exact,
)
from .workload import ALGORITHM_NAMES, WorkloadBin, WorkloadSpec

__all__ = [
    "ALGORITHM_NAMES",
    "BinOnPlatform",
    "DEFAULT_UNIT_COSTS",
    "EvaluationMatrix",
    "FleetAllocation",
    "FleetExclusion",
    "FleetInstance",
    "FleetSolution",
    "PlatformOffer",
    "WorkloadBin",
    "WorkloadSpec",
    "allocations",
    "default_offer",
    "evaluate_fleet",
    "fleet_report",
    "render_fleet",
    "solve",
    "solve_exact",
]

"""Fleet/procurement optimization under power & cost budgets.

Given a workload histogram, a rack power budget and
per-node prices, pick the integer platform mix that minimises
energy-to-solution or procurement cost -- the "which building block,
and how many" question the paper's single-node analysis sets up.
docs/FLEET.md walks through the formulation; ``archline fleet`` is the
CLI front end.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".evaluate": (
            "BinOnPlatform",
            "EvaluationMatrix",
            "FleetExclusion",
            "evaluate_fleet",
        ),
        ".offers": ("DEFAULT_UNIT_COSTS", "PlatformOffer", "default_offer"),
        ".report": ("fleet_report", "render_fleet"),
        ".solver": (
            "FleetAllocation",
            "FleetInstance",
            "FleetSolution",
            "allocations",
            "solve",
            "solve_exact",
        ),
        ".workload": ("ALGORITHM_NAMES", "WorkloadBin", "WorkloadSpec"),
    },
)

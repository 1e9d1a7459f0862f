"""The paper's contribution: the capped energy-roofline model.

Everything in this package is pure model -- no simulation, no
measurement.  :mod:`repro.core.params` defines the platform parameter
vector; :mod:`repro.core.model` evaluates eqs. (1)-(7);
:mod:`repro.core.fitting` recovers parameters from measurements; the
remaining modules implement the paper's derived analyses (rooflines and
crossovers, balance intervals, throttling scenarios, ensembles, error
distributions).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".balance": ("BalanceSummary", "summarise_balance"),
        ".bounding": (
            "BoundedCandidate",
            "best_block",
            "best_mix",
            "bounded_ensemble",
            "crossover_budget",
            "evaluate_candidates",
            "pareto_frontier",
        ),
        ".composite": ("CompositeMachine",),
        ".dvfs": (
            "dvfs_useless_threshold",
            "energy_savings",
            "optimal_frequency",
            "scaled_params",
        ),
        ".errors": (
            "ErrorDistribution",
            "ModelErrorComparison",
            "compare_models",
            "error_distribution",
        ),
        ".fitting": (
            "FitDiagnostics",
            "FitObservations",
            "ModelFit",
            "fit_cache_level",
            "fit_machine",
            "fit_random_access",
        ),
        ".hierarchy": (
            "LevelCeiling",
            "ceilings",
            "levels_of",
            "locality_energy_gain",
            "locality_speedup",
            "params_for_level",
        ),
        ".model": (
            "Regime",
            "avg_power",
            "energy",
            "energy_per_flop",
            "flop_costs",
            "flops_per_joule",
            "performance",
            "power_curve",
            "regime",
            "time",
            "time_per_flop",
        ),
        ".params": ("CacheLevelParams", "MachineParams", "RandomAccessParams"),
        ".rooflines": (
            "RooflineCurve",
            "crossover_intensities",
            "dominance_intervals",
            "intensity_grid",
            "metric_ratio",
            "parity_upper_bound",
            "sample_curve",
        ),
        ".scaling": (
            "EnsembleComparison",
            "compare_power_matched",
            "ensemble",
            "power_matched_count",
            "power_matched_ensemble",
        ),
        ".throttle": (
            "DEFAULT_CAP_FACTORS",
            "ThrottleCurve",
            "ThrottleScenario",
            "cap_for_power_budget",
            "performance_retention",
            "power_retention",
            "throttle_scenario",
        ),
        ".utilisation": ("UtilisationModel", "fit_slope"),
    },
    submodules=("irregular",),
)

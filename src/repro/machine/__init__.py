"""Simulated hardware substrate: platforms, caches, governor, engine.

This package stands in for the nine physical systems of the paper's
testbed.  Ground-truth physics constants come from Table I; the engine
layers on the second-order behaviours (throttling governor, ridge
rounding, OS interference, noise) that make measurement and model
fitting realistic.  See DESIGN.md for the substitution rationale.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".cache": (
            "AccessStats",
            "CacheGeometry",
            "CacheHierarchySim",
            "CacheLevelSim",
            "expected_chase_level",
            "expected_stream_hits",
            "hierarchy_from_level_params",
        ),
        ".config": ("PlatformConfig", "PlatformEffects", "VendorPeaks", "smooth_max"),
        ".engine": ("BatchResult", "Engine", "RunResult"),
        ".governor": ("GovernorResult", "GovernorSettings", "run_governor"),
        ".kernel": ("DRAM", "KernelSpec"),
        ".memory": (
            "Prefetcher",
            "PrefetchStats",
            "chase_counts",
            "serving_level",
            "stream_traffic",
        ),
        ".noise": ("NoiseSpec",),
        ".platforms": (
            "PLATFORM_IDS",
            "all_params",
            "all_platforms",
            "params",
            "platform",
        ),
        ".power": ("PowerTrace",),
        ".trace": (
            "chase_permutation",
            "pointer_chase_trace",
            "stream_trace",
            "strided_trace",
        ),
    },
)

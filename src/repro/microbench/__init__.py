"""The microbenchmark suite of Section IV, run against the simulator."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".cachebench": ("cache_sweep", "working_set_staircase"),
        ".campaign": (
            "CampaignReport",
            "CampaignRunner",
            "ShardReport",
            "ShardSpec",
            "fit_platform",
            "run_shard",
        ),
        ".intensity": ("default_intensities", "intensity_sweep"),
        ".kernels": (
            "cache_kernel",
            "chase_kernel",
            "intensity_kernel",
            "peak_flops_kernel",
            "stream_kernel",
        ),
        ".peak": (
            "peak_flops",
            "peak_stream",
            "sustained_bandwidth",
            "sustained_flops",
        ),
        ".pointer_chase": ("chase_sweep", "dram_miss_fraction"),
        ".runner": (
            "BenchmarkRunner",
            "Observation",
            "QuarantinedCell",
            "validate_measured_run",
        ),
        ".suite": (
            "Campaign",
            "CampaignSettings",
            "FittedPlatform",
            "fit_campaign",
            "run_campaign",
            "to_fit_observations",
        ),
    },
)

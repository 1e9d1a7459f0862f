"""The microbenchmark suite of Section IV, run against the simulator."""

from .cachebench import cache_sweep, working_set_staircase
from .campaign import (
    CampaignReport,
    CampaignRunner,
    CampaignSettings,
    ShardReport,
    ShardSpec,
    fit_platform,
    run_shard,
)
from .intensity import default_intensities, intensity_sweep
from .kernels import (
    cache_kernel,
    chase_kernel,
    intensity_kernel,
    peak_flops_kernel,
    stream_kernel,
)
from .peak import peak_flops, peak_stream, sustained_bandwidth, sustained_flops
from .pointer_chase import chase_sweep, dram_miss_fraction
from .runner import BenchmarkRunner, Observation, QuarantinedCell, validate_measured_run
from .suite import (
    Campaign,
    FittedPlatform,
    fit_campaign,
    run_campaign,
    to_fit_observations,
)

__all__ = [
    "cache_sweep",
    "working_set_staircase",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSettings",
    "ShardReport",
    "ShardSpec",
    "fit_platform",
    "run_shard",
    "default_intensities",
    "intensity_sweep",
    "cache_kernel",
    "chase_kernel",
    "intensity_kernel",
    "peak_flops_kernel",
    "stream_kernel",
    "peak_flops",
    "peak_stream",
    "sustained_bandwidth",
    "sustained_flops",
    "chase_sweep",
    "dram_miss_fraction",
    "BenchmarkRunner",
    "Observation",
    "QuarantinedCell",
    "validate_measured_run",
    "Campaign",
    "FittedPlatform",
    "fit_campaign",
    "run_campaign",
    "to_fit_observations",
]

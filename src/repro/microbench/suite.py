"""Full per-platform microbenchmark campaign and parameter recovery.

``run_campaign`` executes everything Section IV describes for one
platform on one :class:`CampaignSettings`: the single- and
double-precision intensity sweeps, the per-level cache benchmarks, the
pointer chase, and the sustained-peak runs.  ``fit_campaign`` then
reproduces Section V-A: jointly fit the capped and uncapped models to
*all* runs (the paper: "These include runs in which the total data
accessed only fits in a given level of the memory hierarchy"),
yielding one complete, *measured* Table I row that can be compared
against the platform's ground truth.

Both are pure compute.  Caching campaigns and fits in the
content-addressed store (docs/CACHE.md) is the job of
:func:`repro.microbench.campaign.fit_platform` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.fitting import FitObservations, ModelFit, fit_machine
from ..core.params import CacheLevelParams, MachineParams, RandomAccessParams
from ..faults.plan import FaultPlan
from ..machine.config import PlatformConfig
from ..machine.kernel import DRAM
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .cachebench import cache_sweep
from .intensity import balanced_intensities, intensity_sweep
from .peak import peak_flops, peak_stream, sustained_bandwidth, sustained_flops
from .pointer_chase import chase_sweep
from .runner import BenchmarkRunner, Observation, QuarantinedCell

__all__ = [
    "Campaign",
    "CampaignSettings",
    "FittedPlatform",
    "run_campaign",
    "fit_campaign",
    "to_fit_observations",
]


@dataclass(frozen=True)
class CampaignSettings:
    """Knobs controlling campaign size and determinism."""

    seed: int = 2014  #: the paper's publication year, for flavour.
    replicates: int = 2
    points_per_octave: int = 3  #: density of the balanced intensity grid.
    target_duration: float = 0.25  #: seconds per calibrated run.
    include_double: bool = True
    #: Seeded rig-fault model (None = clean rig; the all-zero plan is
    #: bit-for-bit identical to None).
    faults: FaultPlan | None = None
    max_retries: int = 2  #: per-run retry budget under faults.

    def __post_init__(self) -> None:
        if self.faults is not None and self.faults.truncation_rate > 0:
            # Only measurement sessions truncate; no campaign run goes
            # through one, so the plan would be accepted and ignored.
            raise ValueError(
                "truncation_rate applies to measurement sessions only; "
                "a campaign never truncates a run"
            )

    def scaled_down(self) -> "CampaignSettings":
        """Cheaper settings for smoke tests and benchmark harnesses."""
        return replace(
            self,
            replicates=1,
            points_per_octave=2,
            target_duration=0.1,
            include_double=False,
        )


@dataclass(frozen=True)
class Campaign:
    """Raw measurements of one platform's full benchmark campaign."""

    config: PlatformConfig
    intensity_single: list[Observation]
    intensity_double: list[Observation] = field(default_factory=list)
    cache_obs: dict[str, list[Observation]] = field(default_factory=dict)
    chase_obs: list[Observation] = field(default_factory=list)
    peak_single: list[Observation] = field(default_factory=list)
    peak_double: list[Observation] = field(default_factory=list)
    stream_obs: list[Observation] = field(default_factory=list)
    #: Cells the resilient execution path retired (empty when fault-free);
    #: the fit proceeds on the surviving observations and reporting names
    #: what was dropped.
    quarantined: tuple[QuarantinedCell, ...] = ()

    @property
    def single_precision_runs(self) -> list[Observation]:
        """Every single-precision run, in suite order (the joint fit's
        input set)."""
        out = list(self.intensity_single) + list(self.peak_single)
        out.extend(self.stream_obs)
        for obs in self.cache_obs.values():
            out.extend(obs)
        out.extend(self.chase_obs)
        return out

    @property
    def all_observations(self) -> list[Observation]:
        return (
            self.single_precision_runs
            + list(self.intensity_double)
            + list(self.peak_double)
        )

    @property
    def n_runs(self) -> int:
        return len(self.all_observations)


def run_campaign(
    config: PlatformConfig,
    settings: CampaignSettings | None = None,
    *,
    runner: BenchmarkRunner | None = None,
    recorder: TraceRecorder = NULL_RECORDER,
) -> Campaign:
    """Run the full Section IV benchmark suite on one platform.

    The intensity sweeps cover the platform's balanced grid at
    ``settings.points_per_octave`` (default: ``CampaignSettings()``).
    Without a ``runner`` one is built from ``settings`` -- seed, target
    duration, fault plan, retry budget -- recording on ``recorder``.  A
    runner that is passed keeps its own seed, target duration, faults,
    retries and recorder; pass one to reuse its calibration cache or to
    read its counters afterwards (the campaign shards do).  Under an
    active fault plan, runs the resilient path: persistently failing
    cells are quarantined (recorded on :attr:`Campaign.quarantined`)
    and the campaign completes on what survives.  Each suite stage
    records a ``sweep`` span on the runner's recorder.
    """
    settings = settings or CampaignSettings()
    if runner is None:
        runner = BenchmarkRunner(
            config,
            seed=settings.seed,
            target_duration=settings.target_duration,
            faults=settings.faults,
            max_retries=settings.max_retries,
            recorder=recorder,
        )
    intensities = balanced_intensities(
        config, points_per_octave=settings.points_per_octave
    )
    replicates = settings.replicates
    include_double = (
        settings.include_double and config.truth.tau_flop_double is not None
    )
    rec = runner.recorder
    with rec.span("sweep", benchmark="intensity:single"):
        single = intensity_sweep(
            runner, intensities, replicates=replicates, precision="single"
        )
    double: list[Observation] = []
    if include_double:
        with rec.span("sweep", benchmark="intensity:double"):
            double = intensity_sweep(
                runner, intensities, replicates=replicates, precision="double"
            )
    with rec.span("sweep", benchmark="cache"):
        caches = cache_sweep(runner, replicates=replicates)
    chase: list[Observation] = []
    if config.truth.random is not None:
        with rec.span("sweep", benchmark="pointer_chase"):
            chase = chase_sweep(runner, replicates=max(replicates, 2))
    with rec.span("sweep", benchmark="peaks"):
        peaks_s = peak_flops(
            runner, precision="single", replicates=max(replicates, 2)
        )
        peaks_d: list[Observation] = []
        if include_double:
            peaks_d = peak_flops(
                runner, precision="double", replicates=max(replicates, 2)
            )
        stream = peak_stream(runner, replicates=max(replicates, 2))
    return Campaign(
        config=config,
        intensity_single=single,
        intensity_double=double,
        cache_obs=caches,
        chase_obs=chase,
        peak_single=peaks_s,
        peak_double=peaks_d,
        stream_obs=stream,
        quarantined=tuple(runner.quarantined),
    )


def to_fit_observations(observations: list[Observation]) -> FitObservations:
    """Convert observation records into the fitting layer's arrays,
    including per-cache-level traffic and random-access columns."""
    if not observations:
        raise ValueError("no observations to fit")
    n = len(observations)
    levels = sorted(
        {
            level
            for o in observations
            for level in o.kernel.traffic
            if level != DRAM
        }
    )
    cache_traffic = {
        level: np.array(
            [o.kernel.traffic.get(level, 0.0) for o in observations]
        )
        for level in levels
    }
    random_accesses = np.array([o.kernel.random_accesses for o in observations])
    return FitObservations(
        W=np.array([o.flops for o in observations]),
        Q=np.array([o.dram_bytes for o in observations]),
        T=np.array([o.wall_time for o in observations]),
        E=np.array([o.energy for o in observations]),
        cache_traffic=cache_traffic,
        random_accesses=random_accesses if np.any(random_accesses > 0) else None,
    )


@dataclass(frozen=True)
class FittedPlatform:
    """The reproduction's Table I row for one platform."""

    config: PlatformConfig
    campaign: Campaign
    capped: ModelFit
    uncapped: ModelFit
    fit_observations: FitObservations
    eps_flop_double: float | None = None
    sustained_flops_double: float | None = None

    @property
    def truth(self) -> MachineParams:
        """Ground-truth parameters this fit should recover."""
        return self.config.truth

    @property
    def caches(self) -> tuple[CacheLevelParams, ...]:
        """Fitted cache levels, with capacities copied from the config
        (capacity is an input to the benchmark, not an estimate)."""
        out = []
        for level in self.capped.params.caches:
            truth_level = self.truth.cache_by_name.get(level.name)
            capacity = None if truth_level is None else truth_level.capacity
            out.append(replace(level, capacity=capacity))
        return tuple(out)

    @property
    def random(self) -> RandomAccessParams | None:
        return self.capped.params.random

    @property
    def fitted_params(self) -> MachineParams:
        """The capped fit's parameters extended with the double-precision
        estimates -- a complete Table I row."""
        base = self.capped.params
        tau_d = (
            None
            if self.sustained_flops_double is None
            else 1.0 / self.sustained_flops_double
        )
        if tau_d is None or self.eps_flop_double is None:
            # Quarantined double-precision cells can leave one of the
            # pair unmeasured; MachineParams requires both or neither.
            return replace(
                base,
                tau_flop_double=None,
                eps_flop_double=None,
                caches=self.caches,
                description=f"fitted from {self.campaign.n_runs} runs",
            )
        return replace(
            base,
            tau_flop_double=tau_d,
            eps_flop_double=self.eps_flop_double,
            caches=self.caches,
            description=f"fitted from {self.campaign.n_runs} runs",
        )

    @property
    def sustained_flops(self) -> float:
        """Best measured single-precision flop/s."""
        return sustained_flops(self.campaign.peak_single)

    @property
    def sustained_bandwidth(self) -> float:
        """Best measured stream bandwidth, B/s."""
        return sustained_bandwidth(self.campaign.stream_obs)


def fit_campaign(
    campaign: Campaign,
    *,
    rng: np.random.Generator | None = None,
    recorder: TraceRecorder = NULL_RECORDER,
) -> FittedPlatform:
    """Reproduce the Section V-A fitting procedure on one campaign.

    ``recorder`` (no-op by default) gets one span per model fit
    (capped, uncapped, double), so traced campaigns show how much of a
    shard's wall time the fitting stage consumed.
    """
    config = campaign.config
    main_obs = to_fit_observations(campaign.single_precision_runs)
    with recorder.span("fit", model="capped"):
        capped = fit_machine(main_obs, capped=True, name=config.name, rng=rng)
    with recorder.span("fit", model="uncapped"):
        uncapped = fit_machine(main_obs, capped=False, name=config.name, rng=rng)

    eps_d: float | None = None
    sustained_d: float | None = None
    if campaign.intensity_double:
        double_obs = to_fit_observations(
            campaign.intensity_double + campaign.peak_double
        )
        with recorder.span("fit", model="double"):
            double_fit = fit_machine(
                double_obs,
                capped=True,
                name=f"{config.name} (double)",
                rng=rng,
            )
        eps_d = double_fit.params.eps_flop
        # Peaks can be empty when faults quarantined every replicate;
        # the fit then degrades to single precision only.
        if campaign.peak_double:
            sustained_d = sustained_flops(campaign.peak_double)

    return FittedPlatform(
        config=config,
        campaign=campaign,
        capped=capped,
        uncapped=uncapped,
        fit_observations=main_obs,
        eps_flop_double=eps_d,
        sustained_flops_double=sustained_d,
    )

"""Benchmark execution: calibrate, run, measure, record.

The runner owns the engine + measurement rig for one platform and
produces :class:`Observation` records -- the tidy unit every analysis
downstream consumes.  Like the real microbenchmarks it *calibrates*
each kernel to a target wall time (long enough for the 1024 Hz sampler
to see many samples, short enough to keep campaigns fast) using a
noise-free dry run, then executes the scaled kernel for real.

Which path runs when: a sweep (:meth:`BenchmarkRunner.execute_sweep`,
and :meth:`~BenchmarkRunner.execute_replicates` for one kernel) runs as
one batch when no fault plan is active -- the dry runs of its uncached
kernel shapes as one noise-free batch, one
:meth:`~repro.machine.engine.Engine.run_batch` over every run in
kernel-major, replicate-minor order and one
:meth:`~repro.measurement.energy.MeasurementRig.measure_batch` -- and
yields the Observations and counters the per-run path would.  Under an
active plan each run goes through :meth:`~BenchmarkRunner.execute_resilient`
one at a time, because a retry takes its draws between two runs; that
per-run path is also the batch path's oracle.

Under an active :class:`~repro.faults.plan.FaultPlan` the runner also
carries the *resilient execution path* a real rig operator needs:
per-run validation (:func:`validate_measured_run` rejects non-finite or
non-positive measurements with a named error), immediate bounded
retry, and quarantine of ``(benchmark, kernel)`` cells that keep
failing -- the campaign proceeds on surviving observations and the
counters account for every attempt:

``runs_attempted == len(accepted) + runs_failed`` and
``runs_failed == retries + len(quarantined)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..faults.errors import CorruptObservationError, InjectedRunFailureError, RigFaultError
from ..faults.injector import FaultCounters, FaultInjector
from ..faults.plan import FaultPlan
from ..machine.config import PlatformConfig
from ..machine.engine import Engine
from ..machine.kernel import KernelSpec
from ..measurement.energy import MeasuredRun, MeasurementRig
from ..measurement.powermon import PowerMon
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder

__all__ = [
    "Observation",
    "QuarantinedCell",
    "validate_measured_run",
    "BenchmarkRunner",
]


@dataclass(frozen=True)
class Observation:
    """One measured benchmark run."""

    platform: str
    benchmark: str  #: e.g. "intensity", "cache:L1", "pointer_chase".
    kernel: KernelSpec
    wall_time: float  #: measured, seconds.
    energy: float  #: measured (mean-power estimator), Joules.
    avg_power: float  #: measured, Watts.
    throttled: bool  #: ground truth: did the governor intervene?
    replicate: int = 0

    def __post_init__(self) -> None:
        # Flop-free (stream, chase) and traffic-free (peak-flops) probe
        # kernels are legitimate and still take positive time and draw
        # constant power, so positivity is the right invariant even for
        # them -- but when a probe *does* trip it (e.g. a degenerate
        # calibration or a zero-power trace), the exception must say
        # which run died, not just "must be positive".
        if not self.wall_time > 0:
            raise ValueError(
                f"benchmark {self.benchmark!r} kernel {self.kernel.name!r} "
                f"on platform {self.platform!r}: wall_time must be "
                f"positive, got {self.wall_time!r}"
            )
        if not self.energy > 0:
            raise ValueError(
                f"benchmark {self.benchmark!r} kernel {self.kernel.name!r} "
                f"on platform {self.platform!r}: measured energy must be "
                f"positive, got {self.energy!r}"
            )

    # Convenience accessors used throughout the experiments. ---------------

    @property
    def flops(self) -> float:
        return self.kernel.flops

    @property
    def dram_bytes(self) -> float:
        return self.kernel.dram_bytes

    @property
    def intensity(self) -> float:
        return self.kernel.intensity

    @property
    def performance(self) -> float:
        """Measured flop/s (0 for flop-free kernels)."""
        return self.kernel.flops / self.wall_time

    @property
    def bandwidth(self) -> float:
        """Measured total traffic rate, B/s."""
        return self.kernel.total_bytes / self.wall_time

    @property
    def access_rate(self) -> float:
        """Measured random accesses/s."""
        return self.kernel.random_accesses / self.wall_time

    @property
    def flops_per_joule(self) -> float:
        return self.kernel.flops / self.energy

    @property
    def energy_per_byte(self) -> float:
        """Measured J per byte of traffic (total-traffic basis)."""
        total = self.kernel.total_bytes
        if total == 0:
            raise ValueError("kernel moved no bytes")
        return self.energy / total


@dataclass(frozen=True)
class QuarantinedCell:
    """A ``(benchmark, kernel)`` cell retired after persistent failures."""

    platform: str
    benchmark: str
    kernel: str
    attempts: int  #: how many attempts the cell burned before retiring.
    last_error: str  #: message of the final failure.

    @property
    def key(self) -> tuple[str, str]:
        return (self.benchmark, self.kernel)

    def describe(self) -> str:
        return (
            f"{self.benchmark}/{self.kernel} on {self.platform} "
            f"({self.attempts} attempts; last: {self.last_error})"
        )


def validate_measured_run(measured: MeasuredRun, run: str) -> None:
    """Per-run validation: reject corrupt measurements by name.

    A real campaign pipeline sanity-checks every record before it joins
    the fit; NaN ADC words, saturated-to-zero channels or desync bad
    enough to break the estimator all surface here as
    :class:`~repro.faults.errors.CorruptObservationError`.
    """
    for label, value in (
        ("wall_time", measured.wall_time),
        ("energy", measured.energy),
        ("avg_power", measured.avg_power),
    ):
        if not math.isfinite(value):
            raise CorruptObservationError(run, f"{label} is {value!r}")
        if not value > 0:
            raise CorruptObservationError(
                run, f"{label} must be positive, got {value!r}"
            )


class BenchmarkRunner:
    """Runs kernels on one platform and measures them with the rig.

    Parameters
    ----------
    config:
        Platform to benchmark.
    seed:
        Seed for all stochastic effects; ``None`` runs noise-free.
    target_duration:
        Wall time each kernel is calibrated to (seconds).
    powermon:
        Custom instrument (ablations swap in different sampling rates).
    faults:
        Optional seeded rig-fault plan.  ``None`` (and any all-zero
        plan) leaves every execution path bit-for-bit unchanged; an
        active plan corrupts measurements at the instrument boundary
        and enables the resilient retry/quarantine machinery in
        :meth:`execute_resilient` / :meth:`execute_replicates`.
    max_retries:
        Extra attempts per run after a fault-class failure, made
        immediately (the twin's faults need no cool-down).
    recorder:
        Optional :class:`~repro.telemetry.recorder.TraceRecorder`.
        Every execution records nested spans (``run`` containing
        ``calibrate`` -> ``engine`` -> ``measure`` -> ``validate``; a
        batched sweep records one ``run`` with its run count, holding
        ``calibrate``, ``engine`` -- ``engine_batch`` on a noise-free
        runner -- and ``measure``);
        both engines share the recorder, so calibration dry-runs show
        up under ``calibrate`` (a batched sweep's as one
        ``engine_batch``).
        The default no-op recorder leaves execution bit-for-bit
        unchanged.
    """

    def __init__(
        self,
        config: PlatformConfig,
        *,
        seed: int | None = 0,
        target_duration: float = 0.25,
        powermon: PowerMon | None = None,
        faults: FaultPlan | None = None,
        max_retries: int = 2,
        recorder: TraceRecorder | None = NULL_RECORDER,
    ) -> None:
        if not target_duration > 0:
            raise ValueError("target_duration must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.config = config
        self.target_duration = target_duration
        self.recorder = NULL_RECORDER if recorder is None else recorder
        rng = None if seed is None else np.random.default_rng(seed)
        self.engine = Engine(config, rng, recorder=self.recorder)
        self._calibration_engine = Engine(
            config, rng=None, recorder=self.recorder
        )
        self.injector = (
            None if faults is None else FaultInjector(faults, key=seed)
        )
        self.rig = MeasurementRig(config, powermon, faults=self.injector)
        self.max_retries = max_retries
        # Calibration dry-runs are deterministic per kernel *shape*, so
        # replicated runs (and repeated sweeps over the same grid) can
        # reuse the factor instead of re-running the noise-free engine.
        self._calibration_cache: dict[tuple, float] = {}
        self.calibration_hits = 0
        self.calibration_misses = 0
        # Resilience accounting (see the accounting identity in the
        # module docstring).
        self.runs_attempted = 0
        self.runs_failed = 0
        self.retries = 0
        self.rejected = 0  #: validation failures (subset of runs_failed).
        self.runs_skipped = 0  #: calls short-circuited by quarantine.
        self.quarantined: list[QuarantinedCell] = []
        self._quarantined_keys: set[tuple[str, str]] = set()

    @property
    def fault_counters(self) -> FaultCounters:
        """The injector's corruption totals (zeros when fault-free)."""
        return self.injector.counters if self.injector else FaultCounters()

    @staticmethod
    def _shape_key(kernel: KernelSpec) -> tuple:
        """Memoisation key: the work terms the dry-run time depends on
        (the platform is implicit -- one cache per runner)."""
        return (
            kernel.precision,
            kernel.flops,
            kernel.random_accesses,
            tuple(sorted(kernel.traffic.items())),
        )

    def _calibration_factor(self, kernel: KernelSpec) -> float:
        key = self._shape_key(kernel)
        factor = self._calibration_cache.get(key)
        if factor is None:
            dry = self._calibration_engine.run(kernel)
            factor = self.target_duration / dry.wall_time
            self._calibration_cache[key] = factor
            self.calibration_misses += 1
        else:
            self.calibration_hits += 1
        return factor

    def calibrate(self, kernel: KernelSpec) -> KernelSpec:
        """Scale a kernel so its noise-free run hits the target time.

        Dry-run results are memoised per kernel shape; replicates of
        the same kernel pay for one dry run, not one each.
        """
        return self._scaled(kernel, self._calibration_factor(kernel))

    @staticmethod
    def _scaled(kernel: KernelSpec, factor: float) -> KernelSpec:
        if math.isclose(factor, 1.0, rel_tol=1e-6):
            return kernel
        return kernel.scaled(factor)

    def prime_calibration(self, kernels: Sequence[KernelSpec]) -> int:
        """Pre-fill the calibration cache with one vectorised dry run.

        Deduplicates by kernel shape, batches the not-yet-cached rest
        through :meth:`Engine.run_batch` (noise-free, so fully
        vectorised), and returns how many shapes were computed.  The
        cached factors are bit-for-bit what :meth:`calibrate` would
        compute one kernel at a time.
        """
        todo = self._uncached(kernels)
        if todo:
            with self.recorder.span("calibrate", primed=len(todo)):
                self._dry_run(todo)
        return len(todo)

    def _uncached(self, kernels: Iterable[KernelSpec]) -> dict[tuple, KernelSpec]:
        """The first kernel of each shape the calibration cache lacks."""
        todo: dict[tuple, KernelSpec] = {}
        for kernel in kernels:
            key = self._shape_key(kernel)
            if key not in self._calibration_cache and key not in todo:
                todo[key] = kernel
        return todo

    def _dry_run(self, todo: dict[tuple, KernelSpec]) -> None:
        """Cache the factors of ``todo``'s shapes from one noise-free
        :meth:`Engine.run_batch`, one miss each."""
        batch = self._calibration_engine.run_batch(list(todo.values()))
        for key, wall_time in zip(todo, batch.wall_times):
            self._calibration_cache[key] = self.target_duration / float(wall_time)
        self.calibration_misses += len(todo)

    @staticmethod
    def _run_name(kernel: KernelSpec, benchmark: str, replicate: int) -> str:
        return f"{benchmark}/{kernel.name}#r{replicate}"

    def execute(
        self, kernel: KernelSpec, benchmark: str, *, replicate: int = 0
    ) -> Observation:
        """Calibrate, run and measure one kernel (a single attempt).

        Under an active fault plan this may raise a
        :class:`~repro.faults.errors.RigFaultError` subclass -- an
        injected whole-run failure, an all-dropped channel, or a
        measurement that fails validation.  Fault-free behaviour is
        unchanged.
        """
        self.runs_attempted += 1
        run = self._run_name(kernel, benchmark, replicate)
        recorder = self.recorder
        with recorder.span("run", benchmark=benchmark, kernel=kernel.name):
            with recorder.span("calibrate"):
                calibrated = self.calibrate(kernel)
            # Engine.run records its own "engine" span, nested here.
            result = self.engine.run(calibrated)
            inject = self.injector is not None and self.injector.active
            if inject and self.injector.fail_run(run):
                # The run executed (the engine's noise stream advanced,
                # as a re-run on a real rig would) but the rig lost it.
                raise InjectedRunFailureError(run)
            with recorder.span("measure"):
                measured = self.rig.measure(result.trace)
            if inject:
                with recorder.span("validate"):
                    try:
                        validate_measured_run(measured, run)
                    except CorruptObservationError:
                        self.rejected += 1
                        raise
        return Observation(
            platform=self.config.name,
            benchmark=benchmark,
            kernel=calibrated,
            wall_time=measured.wall_time,
            energy=measured.energy,
            avg_power=measured.avg_power,
            throttled=result.throttled,
            replicate=replicate,
        )

    def execute_resilient(
        self, kernel: KernelSpec, benchmark: str, *, replicate: int = 0
    ) -> Observation | None:
        """Execute with bounded retry and quarantine.

        Returns the observation, or ``None`` when the run was lost:
        either its cell is already quarantined (skipped without an
        attempt) or every attempt failed, which quarantines the
        ``(benchmark, kernel)`` cell for the rest of the campaign.
        Only :class:`~repro.faults.errors.RigFaultError` failures are
        retried; anything else is a bug and propagates.
        """
        key = (benchmark, kernel.name)
        if key in self._quarantined_keys:
            self.runs_skipped += 1
            return None
        last_error: RigFaultError | None = None
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                self.retries += 1
            try:
                return self.execute(kernel, benchmark, replicate=replicate)
            except RigFaultError as err:
                self.runs_failed += 1
                last_error = err
        self._quarantined_keys.add(key)
        self.quarantined.append(
            QuarantinedCell(
                platform=self.config.name,
                benchmark=benchmark,
                kernel=kernel.name,
                attempts=self.max_retries + 1,
                last_error=str(last_error),
            )
        )
        return None

    def execute_replicates(
        self, kernel: KernelSpec, benchmark: str, replicates: int
    ) -> list[Observation]:
        """Run the same kernel several times (distinct noise draws).

        The one-kernel :meth:`execute_sweep`.
        """
        return self.execute_sweep([(kernel, benchmark)], replicates)

    def execute_sweep(
        self, cells: Sequence[tuple[KernelSpec, str]], replicates: int
    ) -> list[Observation]:
        """Run each ``(kernel, benchmark)`` cell ``replicates`` times.

        Runs go kernel-major, replicate-minor.  Without an active fault
        plan the sweep is one batch (see the module docstring); with
        one, every run goes through :meth:`execute_resilient`, lost
        replicates are simply absent from the returned list (possibly
        leaving it empty) and accounted for in the runner's counters --
        graceful degradation rather than a dead sweep.
        """
        if replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not cells:
            return []
        # A fault plan may also come in on a custom PowerMon.
        faulted = any(
            injector is not None and injector.active
            for injector in (self.injector, self.rig.powermon.injector)
        )
        if not faulted:
            return self._execute_batch(cells, replicates)
        out = []
        for kernel, benchmark in cells:
            for r in range(replicates):
                obs = self.execute_resilient(kernel, benchmark, replicate=r)
                if obs is not None:
                    out.append(obs)
        return out

    def _execute_batch(
        self, cells: Sequence[tuple[KernelSpec, str]], replicates: int
    ) -> list[Observation]:
        """A fault-free sweep as one batch, bit-identical to running
        :meth:`execute` per run: the engine's generator takes every
        run's draws in the same order, and nothing else draws."""
        n = len(cells) * replicates
        self.runs_attempted += n
        recorder = self.recorder
        benchmarks = ",".join(dict.fromkeys(benchmark for _, benchmark in cells))
        with recorder.span("run", benchmark=benchmarks, runs=n):
            with recorder.span("calibrate"):
                todo = self._uncached(kernel for kernel, _ in cells)
                if todo:
                    self._dry_run(todo)
                cache = self._calibration_cache
                calibrated = [
                    self._scaled(kernel, cache[self._shape_key(kernel)])
                    for kernel, _ in cells
                ]
            # As run by run: a shape's first run misses, every other hits.
            self.calibration_hits += n - len(todo)
            batch = self.engine.run_batch(
                [kernel for kernel in calibrated for _ in range(replicates)]
            )
            with recorder.span("measure", runs=n):
                measured = self.rig.measure_batch(batch.flat_traces())
            runs = zip(
                measured.wall_times.tolist(),
                measured.energies.tolist(),
                measured.avg_powers.tolist(),
                batch.throttled.tolist(),
            )
            return [
                Observation(
                    platform=self.config.name,
                    benchmark=benchmark,
                    kernel=kernel,
                    wall_time=wall_time,
                    energy=energy,
                    avg_power=avg_power,
                    throttled=throttled,
                    replicate=r,
                )
                for kernel, (_, benchmark) in zip(calibrated, cells)
                for r, (wall_time, energy, avg_power, throttled) in zip(
                    range(replicates), runs
                )
            ]

"""The platform execution engine.

``Engine.run`` turns a :class:`~repro.machine.kernel.KernelSpec` into
what a real benchmark run produces: a wall time and a continuous power
trace.  The engine applies, in order:

1. *component times* -- flops at ``tau_flop``, per-level traffic at each
   level's bandwidth, dependent accesses at the random-access rate;
2. *ridge rounding* -- compute and memory overlap as a p-norm rather
   than an ideal hard max (:func:`~repro.machine.config.smooth_max`);
3. *utilisation-dependent energy scaling* -- per-op energy shrinks on
   underutilised pipelines when the platform models it (Arndale GPU);
4. *the power-cap governor* -- a discrete DVFS control loop that
   throttles frequency whenever dynamic power exceeds ``delta_pi``;
5. *OS interference* -- Poisson stalls at constant power (NUC GPU);
6. *run-to-run noise* -- lognormal wall-time and per-segment power
   noise.

Everything above the closed-form model of :mod:`repro.core.model` is a
*second-order effect*: with effects and noise disabled the engine's
time and energy agree with the capped model to within the governor's
discretisation, a property the integration tests assert.

``Engine.run_batch`` executes a whole sweep at once.  Steps 1-3 (and
the cap check) are pure elementwise arithmetic, so they are evaluated
as NumPy array operations over the full batch; runs whose dynamic
power exceeds the cap have their governor control loops advanced in
lockstep by :func:`~repro.machine.governor.run_governor_batch` (masked
array updates, bit-identical to the per-kernel scalar loop).  Noise
does not fall back to :meth:`Engine.run`: no run's draws depend on
another run's outcome, so each run takes its stall, time and power
draws in batch order through the one per-run noise helper ``run``
uses too, and the noisy traces are kept in one flat
:class:`~repro.machine.power.RaggedTraces` layout.  The scalar path
routes through the *same* vectorised helpers (on length-1 batches), so
``run_batch`` agrees with ``run`` bit-for-bit per kernel, with noise
off and with noise on from the same generator state -- the property
``tests/machine/test_batch.py`` asserts and
``benchmarks/bench_campaign.py`` measures the speedup of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..core.model import flop_costs
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .config import PlatformConfig, smooth_max
from .governor import GovernorBatchResult, run_governor, run_governor_batch
from .kernel import DRAM, KernelSpec
from .noise import (
    apply_trace_noise,
    insert_stalls,
    lognormal_factor,
    power_noise,
    sample_stalls,
)
from .power import PowerTrace, RaggedTraces

__all__ = [
    "ENGINE_FINGERPRINT_VERSION",
    "RunResult",
    "BatchResult",
    "SessionResult",
    "Engine",
]

#: Version of the engine's *observable semantics*, as seen by the
#: content-addressed campaign store (:mod:`repro.store`).  Every cached
#: cell key includes this number, so bumping it invalidates the whole
#: cache at once.  Bump it -- by convention, in the same commit --
#: whenever a change alters what the engine (or anything between it and
#: an :class:`~repro.microbench.runner.Observation`: governor, noise,
#: measurement rig, calibration) computes for identical inputs.  A change
#: to what the fit computes (:mod:`repro.core.fitting`, its optimiser)
#: requires a bump too, even when every observation is unchanged: cached
#: fits are keyed on this version (:func:`repro.store.fingerprint.fit_key`).
#: Pure refactors, speedups proven bit-identical by the differential
#: tests, and new optional features that default off do NOT require a
#: bump.
ENGINE_FINGERPRINT_VERSION = 3


@dataclass(frozen=True)
class RunResult:
    """Ground truth of one kernel execution.

    The *measured* time/energy an experiment should use come from the
    measurement layer (:mod:`repro.measurement`), which samples
    ``trace`` the way PowerMon 2 would; ``wall_time`` and the trace's
    exact integral are the simulator's ground truth.
    """

    kernel: KernelSpec
    wall_time: float  #: seconds, including stalls and time noise.
    trace: PowerTrace  #: total platform power over the run.
    throttled: bool  #: whether the governor intervened.
    ideal_time: float  #: seconds the capped closed-form model predicts.

    @property
    def true_energy(self) -> float:
        """Exact trace integral, Joules."""
        return self.trace.energy()

    @property
    def true_avg_power(self) -> float:
        """Exact average power, Watts."""
        return self.trace.average_power()


@dataclass(frozen=True)
class BatchResult:
    """Ground truth of a whole batch of kernel executions.

    The per-run quantities live in aligned arrays so downstream sweeps
    can stay vectorised; ``result(i)``/``results()`` materialise the
    equivalent :class:`RunResult` records.  Noise-free runs build their
    power trace on demand (unthrottled runs from ``segment_powers``,
    throttled ones from their governor schedule); a noisy batch keeps
    every trace in one flat :class:`~repro.machine.power.RaggedTraces`
    layout, which is ``traces`` itself.
    """

    kernels: tuple[KernelSpec, ...]
    wall_times: np.ndarray  #: seconds per kernel.
    energies: np.ndarray  #: exact trace integrals, Joules.
    avg_powers: np.ndarray  #: exact average powers, Watts.
    ideal_times: np.ndarray  #: capped closed-form times, seconds.
    throttled: np.ndarray  #: bool per kernel: did the governor act?
    #: Constant total power of each unthrottled noise-free run (W);
    #: entries with an explicit trace are ignored.
    segment_powers: np.ndarray = field(repr=False)
    #: Traces that could not stay implicit (throttled or noisy runs).
    traces: Mapping[int, PowerTrace] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.kernels)

    @property
    def n_throttled(self) -> int:
        return int(np.count_nonzero(self.throttled))

    def trace(self, i: int) -> PowerTrace:
        """The i-th run's power trace (constant-power runs are built
        on demand, identically to what the scalar path constructs)."""
        stored = self.traces.get(int(i))
        if stored is not None:
            return stored
        return PowerTrace.constant(
            float(self.segment_powers[i]), float(self.wall_times[i])
        )

    def result(self, i: int) -> RunResult:
        """Materialise the i-th run as a :class:`RunResult`."""
        return RunResult(
            kernel=self.kernels[i],
            wall_time=float(self.wall_times[i]),
            trace=self.trace(i),
            throttled=bool(self.throttled[i]),
            ideal_time=float(self.ideal_times[i]),
        )

    def results(self) -> list[RunResult]:
        """All runs as :class:`RunResult` records, in batch order."""
        return [self.result(i) for i in range(len(self))]

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.results())

    def flat_traces(self) -> RaggedTraces:
        """Every run's trace in one flat layout, in batch order (a
        noisy batch already stores them so)."""
        if isinstance(self.traces, RaggedTraces):
            return self.traces
        return RaggedTraces.from_traces([self.trace(i) for i in range(len(self))])


class _LazyThrottledTraces(Mapping):
    """Throttled runs' power traces, built (and cached) on first access.

    A capped sweep rarely looks at individual traces -- downstream
    consumers read the aligned ``wall_times``/``energies`` arrays --
    so the batch path defers ``PowerTrace`` construction until someone
    asks.  The trace built here is exactly what the eager path would
    have stored: ``PowerTrace.from_durations`` over the governor's
    schedule with ``pi1 + f * demand`` segment powers.
    """

    def __init__(
        self,
        indices: np.ndarray,
        schedules: GovernorBatchResult,
        pi1: float,
        demands: np.ndarray,
    ) -> None:
        self._lane = {int(i): j for j, i in enumerate(indices)}
        self._schedules = schedules
        self._pi1 = pi1
        self._demands = demands  # aligned with the schedules' lanes
        self._cache: dict[int, PowerTrace] = {}

    def __getitem__(self, i: int) -> PowerTrace:
        j = self._lane[i]
        trace = self._cache.get(i)
        if trace is None:
            trace = PowerTrace.from_durations(
                self._schedules.durations[j],
                self._pi1
                + self._schedules.frequencies[j] * float(self._demands[j]),
            )
            self._cache[i] = trace
        return trace

    def __iter__(self) -> Iterator[int]:
        return iter(self._lane)

    def __len__(self) -> int:
        return len(self._lane)


@dataclass(frozen=True)
class SessionResult:
    """A whole recorded campaign session: runs separated by idle.

    ``windows`` holds the ground-truth ``(start, end)`` of each run on
    the session timeline; the measurement layer's window detection
    (:mod:`repro.measurement.session`) is checked against them.
    """

    trace: PowerTrace
    windows: tuple[tuple[float, float], ...]
    results: tuple[RunResult, ...]

    @property
    def n_runs(self) -> int:
        return len(self.results)


@dataclass(frozen=True)
class _BatchInputs:
    """Kernel work terms gathered into aligned arrays.

    ``volumes`` is keyed by level name in the platform's canonical
    order (DRAM first, then caches as configured); absent levels hold
    zeros, so the per-level sums below accumulate in the same order for
    every kernel -- which is what makes the scalar and batch paths
    bit-for-bit identical.
    """

    kernels: tuple[KernelSpec, ...]
    flops: np.ndarray
    volumes: dict[str, np.ndarray]
    random_accesses: np.ndarray
    tau_flop: np.ndarray
    eps_flop: np.ndarray


@dataclass(frozen=True)
class _BatchPhysics:
    """Deterministic per-kernel physics, vectorised over a batch."""

    t_flop: np.ndarray
    t_mem: np.ndarray
    base_time: np.ndarray  #: ridge-rounded overlap time, seconds.
    dyn_energy: np.ndarray  #: utilisation-scaled dynamic energy, J.
    demand: np.ndarray  #: full-speed dynamic power, W.
    ideal_time: np.ndarray  #: capped closed-form time, seconds.


class Engine:
    """Executes kernels on one simulated platform.

    Parameters
    ----------
    config:
        The platform to simulate.
    rng:
        Source of all randomness.  Pass a seeded generator for
        reproducible campaigns; ``None`` disables every stochastic
        effect (noise and interference), leaving only the deterministic
        second-order physics.
    recorder:
        Optional :class:`~repro.telemetry.recorder.TraceRecorder`;
        :meth:`run` and :meth:`run_batch` record spans on it.  The
        default no-op recorder never touches ``rng``, so traced and
        untraced executions are bit-for-bit identical.
    """

    def __init__(
        self,
        config: PlatformConfig,
        rng: np.random.Generator | None = None,
        recorder: TraceRecorder | None = NULL_RECORDER,
    ) -> None:
        self.config = config
        self.rng = rng
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self._level_costs = self._build_level_costs()
        #: Canonical accumulation order for per-level sums: DRAM first,
        #: then caches as the platform declares them.  Both the scalar
        #: and batch paths sum in this order.
        self._level_order = (DRAM,) + tuple(
            level.name for level in config.truth.caches
        )

    def _build_level_costs(self) -> dict[str, tuple[float, float]]:
        """Per-level ``(tau_byte, eps_byte)`` including DRAM."""
        truth = self.config.truth
        costs = {DRAM: (truth.tau_mem, truth.eps_mem)}
        for level in truth.caches:
            costs[level.name] = (level.tau_byte, level.eps_byte)
        return costs

    # ------------------------------------------------------------------
    # Deterministic physics (shared by the scalar and batch paths).
    # ------------------------------------------------------------------

    def _gather(self, kernels: Sequence[KernelSpec]) -> _BatchInputs:
        """Validate a batch and gather its work terms into arrays.

        This is the *single* place kernel demands are checked against
        the platform: unknown traffic levels and random accesses on a
        platform without random-access parameters are rejected here, so
        neither guard can be dropped by one of the consumers
        (component times, dynamic energy, the cap check).
        """
        if not kernels:
            raise ValueError("need at least one kernel")
        truth = self.config.truth
        for kernel in kernels:
            for level in kernel.traffic:
                if level not in self._level_costs:
                    raise KeyError(
                        f"platform {truth.name!r} has no level {level!r}; "
                        f"available: {sorted(self._level_costs)}"
                    )
        random_accesses = np.array([k.random_accesses for k in kernels])
        if truth.random is None and np.any(random_accesses > 0.0):
            offender = next(k for k in kernels if k.random_accesses > 0.0)
            raise ValueError(
                f"platform {truth.name!r} has no random-access parameters "
                f"(kernel {offender.name!r} performs dependent accesses)"
            )
        costs = {
            precision: flop_costs(truth, precision)
            for precision in {k.precision for k in kernels}
        }
        return _BatchInputs(
            kernels=tuple(kernels),
            flops=np.array([k.flops for k in kernels]),
            volumes={
                level: np.array([k.traffic.get(level, 0.0) for k in kernels])
                for level in self._level_order
            },
            random_accesses=random_accesses,
            tau_flop=np.array([costs[k.precision][0] for k in kernels]),
            eps_flop=np.array([costs[k.precision][1] for k in kernels]),
        )

    def _batch_component_times(
        self, batch: _BatchInputs
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised ``(flop_time, memory_time)`` at full speed."""
        truth = self.config.truth
        t_flop = batch.flops * batch.tau_flop
        t_mem = np.zeros(len(batch.kernels))
        for level in self._level_order:
            tau, _ = self._level_costs[level]
            t_mem = t_mem + batch.volumes[level] * tau
        if truth.random is not None:
            t_mem = t_mem + batch.random_accesses * truth.random.tau_access
        return t_flop, t_mem

    def _energy_sum(self, batch: _BatchInputs, g_flop, g_mem) -> np.ndarray:
        """Per-level energy accumulation, the one copy of the sum.

        ``g_flop``/``g_mem`` are the utilisation scaling factors
        (scalars or per-kernel arrays); pass 1.0 for the raw unscaled
        dynamic energy the cap check uses.
        """
        truth = self.config.truth
        energy = batch.flops * batch.eps_flop * g_flop
        for level in self._level_order:
            _, eps = self._level_costs[level]
            energy = energy + batch.volumes[level] * eps * g_mem
        if truth.random is not None:
            energy = energy + (
                batch.random_accesses * truth.random.eps_access * g_mem
            )
        return energy

    def _batch_physics(self, batch: _BatchInputs) -> _BatchPhysics:
        """Everything deterministic, vectorised over the batch."""
        truth = self.config.truth
        effects = self.config.effects
        t_flop, t_mem = self._batch_component_times(batch)
        base = smooth_max(t_flop, t_mem, effects.ridge_smoothing)
        base = np.asarray(base)

        slope = effects.utilisation_energy_slope
        if slope > 0.0:
            positive = base > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                u_flop = np.minimum(
                    1.0, np.divide(t_flop, base, out=np.ones_like(base), where=positive)
                )
                u_mem = np.minimum(
                    1.0, np.divide(t_mem, base, out=np.ones_like(base), where=positive)
                )
            g_flop = np.where(positive, 1.0 - slope * (1.0 - u_flop), 1.0)
            g_mem = np.where(positive, 1.0 - slope * (1.0 - u_mem), 1.0)
        else:
            g_flop = g_mem = 1.0
        dyn_energy = self._energy_sum(batch, g_flop, g_mem)

        with np.errstate(divide="ignore", invalid="ignore"):
            demand = np.divide(
                dyn_energy, base, out=np.zeros_like(base), where=base > 0.0
            )

        ideal = np.maximum(t_flop, t_mem)
        if truth.is_capped:
            # Cap applies to the un-scaled dynamic energy (the model
            # knows nothing of utilisation scaling).
            raw_energy = self._energy_sum(batch, 1.0, 1.0)
            ideal = np.maximum(ideal, raw_energy / truth.delta_pi)

        return _BatchPhysics(
            t_flop=t_flop,
            t_mem=t_mem,
            base_time=base,
            dyn_energy=dyn_energy,
            demand=demand,
            ideal_time=ideal,
        )

    def component_times(self, kernel: KernelSpec) -> tuple[float, float]:
        """``(flop_time, memory_time)`` at full speed, seconds.

        Memory time sums streaming transfers across levels with the
        dependent-access time: they share the load/store path, so they
        serialise against each other but overlap with the flops.
        """
        t_flop, t_mem = self._batch_component_times(self._gather([kernel]))
        return float(t_flop[0]), float(t_mem[0])

    def dynamic_energy(self, kernel: KernelSpec) -> float:
        """Dynamic (above-constant) energy of the kernel, Joules,
        including utilisation-dependent scaling when modelled."""
        physics = self._batch_physics(self._gather([kernel]))
        return float(physics.dyn_energy[0])

    def ideal_time(self, kernel: KernelSpec) -> float:
        """The capped closed-form model's time for this kernel
        (hard max, no second-order effects), seconds."""
        physics = self._batch_physics(self._gather([kernel]))
        return float(physics.ideal_time[0])

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self, kernel: KernelSpec) -> RunResult:
        """Execute one kernel and return its ground-truth result."""
        with self.recorder.span("engine", kernel=kernel.name):
            return self._run(kernel)

    def _run(self, kernel: KernelSpec) -> RunResult:
        config = self.config
        truth = config.truth
        effects = config.effects

        physics = self._batch_physics(self._gather([kernel]))
        base_time = float(physics.base_time[0])
        demand = float(physics.demand[0])

        cap = truth.delta_pi if truth.is_capped else math.inf
        if math.isfinite(cap):
            cap = cap * (1.0 - effects.cap_guard_band)
            schedule = run_governor(base_time, demand, cap, effects.governor)
            durations = schedule.durations
            powers = truth.pi1 + schedule.frequencies * demand
            throttled = schedule.throttled
        else:
            durations = np.array([base_time])
            powers = np.array([truth.pi1 + demand])
            throttled = False

        trace = PowerTrace.from_durations(durations, powers)
        if self.rng is not None:
            trace = PowerTrace(*self._noisy(trace.edges, trace.values))

        return RunResult(
            kernel=kernel,
            wall_time=trace.duration,
            trace=trace,
            throttled=throttled,
            ideal_time=float(physics.ideal_time[0]),
        )

    def _noisy(
        self, edges: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One run's stochastic effects on its trace ``(edges, values)``.

        The one noise helper of :meth:`run` and :meth:`run_batch`, so a
        run takes its draws in the same order on both paths: stalls,
        then the time factor, then per-segment power noise.
        """
        rng = self.rng
        noise = self.config.effects.noise
        # OS interference: zero-progress stalls at constant power.
        stalls = sample_stalls(
            rng,
            float(edges[-1] - edges[0]),
            noise.interference_rate,
            noise.interference_duration,
        )
        if stalls:
            trace = insert_stalls(
                PowerTrace(edges, values), stalls, self.config.truth.pi1
            )
            edges, values = trace.edges, trace.values
        # Run-to-run throughput variation stretches the timeline.
        factor = lognormal_factor(rng, noise.time_sigma)
        # Exact sentinel: lognormal_factor returns exactly 1.0 when
        # time noise is off.  # archlint: disable=ARCH004
        if factor != 1.0:
            edges = edges * factor
        return edges, power_noise(rng, values, noise.power_sigma)

    def run_batch(self, kernels: Sequence[KernelSpec]) -> BatchResult:
        """Execute a whole sweep and return aligned result arrays.

        The deterministic physics of every kernel are evaluated as
        NumPy array operations over the batch, and the capped kernels'
        sawtooth control loops advance in lockstep through the
        vectorised batch governor.  With a generator, each run then
        takes its stall, time and power draws in batch order through
        the noise helper :meth:`run` uses, and the noisy traces are
        stored in one flat :class:`~repro.machine.power.RaggedTraces`
        layout that :meth:`BatchResult.trace` materialises on demand.
        Noise does not fall back to :meth:`run`.  Either way the
        results are identical to calling :meth:`run` per kernel on an
        engine whose generator starts in the same state, which is what
        keeps the scalar path usable as the reference oracle.

        A noisy batch executes runs a campaign measures, so it records
        one ``engine`` span, governor included, as :meth:`run` does for
        one run.  A noise-free batch (a calibration dry pass, a served
        query) records ``engine_batch``, with ``governor_batch`` nested
        when a kernel is throttled.
        """
        kernels = tuple(kernels)
        truth = self.config.truth
        noisy = self.rng is not None
        span = "engine" if noisy else "engine_batch"
        with self.recorder.span(span, n=len(kernels)):
            physics = self._batch_physics(self._gather(kernels))
            if (physics.base_time <= 0.0).any():
                offender = kernels[int(np.argmin(physics.base_time))]
                raise ValueError(
                    f"kernel {offender.name!r} has zero execution time on "
                    f"platform {truth.name!r}"
                )
            if noisy:
                # The governor's time is this span's, as in ``run``.
                idx, schedules = self._govern(physics)
                return self._noisy_batch(kernels, physics, idx, schedules)
            idx, schedules = self._govern(physics, self.recorder)
            return self._noise_free_batch(kernels, physics, idx, schedules)

    def _govern(
        self, physics: _BatchPhysics, recorder: TraceRecorder = NULL_RECORDER
    ) -> tuple[np.ndarray, GovernorBatchResult | None]:
        """The runs whose demand exceeds the guarded cap, and their
        lockstep governor schedules (a ``governor_batch`` span on
        ``recorder``)."""
        truth = self.config.truth
        effects = self.config.effects
        if not truth.is_capped:
            return np.empty(0, dtype=np.intp), None
        cap = truth.delta_pi * (1.0 - effects.cap_guard_band)
        idx = np.flatnonzero(physics.demand > cap)
        if not idx.size:
            return idx, None
        # All capped kernels' sawtooth control loops advance in lockstep
        # as whole-array updates -- bit-identical to the per-kernel
        # scalar governor.
        with recorder.span("governor_batch", n=int(idx.size)):
            schedules = run_governor_batch(
                physics.base_time[idx], physics.demand[idx], cap, effects.governor
            )
        return idx, schedules

    def _noise_free_batch(
        self,
        kernels: tuple[KernelSpec, ...],
        physics: _BatchPhysics,
        idx: np.ndarray,
        schedules: GovernorBatchResult | None,
    ) -> BatchResult:
        pi1 = self.config.truth.pi1
        wall_times = physics.base_time.copy()
        segment_powers = pi1 + physics.demand
        energies = wall_times * segment_powers
        throttled = np.zeros(len(kernels), dtype=bool)
        traces: Mapping = {}
        if schedules is not None:
            demands = physics.demand[idx]
            wall_times[idx] = schedules.trace_wall_times
            throttled[idx] = schedules.throttled
            # Same integral the eager trace would report:
            # dot(trace segment durations, pi1 + f * demand).
            for j, i in enumerate(idx):
                energies[i] = np.dot(
                    schedules.trace_segment_durations[j],
                    pi1 + schedules.frequencies[j] * float(demands[j]),
                )
            traces = _LazyThrottledTraces(idx, schedules, pi1, demands)
        return BatchResult(
            kernels=kernels,
            wall_times=wall_times,
            energies=energies,
            avg_powers=energies / wall_times,
            ideal_times=physics.ideal_time,
            throttled=throttled,
            segment_powers=segment_powers,
            traces=traces,
        )

    def _noisy_batch(
        self,
        kernels: tuple[KernelSpec, ...],
        physics: _BatchPhysics,
        idx: np.ndarray,
        schedules: GovernorBatchResult | None,
    ) -> BatchResult:
        """Each run's noise in batch order, drawn as :meth:`run` draws
        it, over the trace :meth:`run` builds before its noise."""
        pi1 = self.config.truth.pi1
        lanes = dict(zip(idx.tolist(), range(idx.size)))
        n = len(kernels)
        wall_times = np.empty(n)
        energies = np.empty(n)
        throttled = np.zeros(n, dtype=bool)
        all_edges: list[np.ndarray] = []
        all_values: list[np.ndarray] = []
        for i in range(n):
            j = lanes.get(i)
            if j is None:
                edges = np.array([0.0, physics.base_time[i]])
                values = np.array([pi1 + physics.demand[i]])
            else:
                # PowerTrace.from_durations of the governor's schedule.
                durations = schedules.durations[j]
                edges = np.empty(len(durations) + 1)
                edges[0] = 0.0
                np.cumsum(durations, out=edges[1:])
                values = pi1 + schedules.frequencies[j] * float(physics.demand[i])
                throttled[i] = schedules.throttled[j]
            edges, values = self._noisy(edges, values)
            # PowerTrace.duration and PowerTrace.energy, bit for bit.
            wall_times[i] = edges[-1] - edges[0]
            energies[i] = np.dot(edges[1:] - edges[:-1], values)
            all_edges.append(edges)
            all_values.append(values)
        counts = [len(values) for values in all_values]
        traces = RaggedTraces(
            np.concatenate(all_edges),
            np.concatenate(all_values),
            np.concatenate(([0], np.cumsum(counts))),
        )
        return BatchResult(
            kernels=kernels,
            wall_times=wall_times,
            energies=energies,
            avg_powers=energies / wall_times,
            ideal_times=physics.ideal_time,
            throttled=throttled,
            segment_powers=pi1 + physics.demand,
            traces=traces,
        )

    def run_session(
        self,
        kernels: list[KernelSpec],
        *,
        idle_gap: float = 0.05,
    ) -> "SessionResult":
        """Execute kernels back to back with idle gaps, as a campaign
        records them: idle, run, idle, run, ..., idle.

        Returns the concatenated session trace plus the ground-truth
        activity windows -- the reference the measurement layer's
        window detection is validated against.
        """
        if not kernels:
            raise ValueError("a session needs at least one kernel")
        if not idle_gap > 0:
            raise ValueError("idle_gap must be positive")
        trace = self.idle_trace(idle_gap)
        windows: list[tuple[float, float]] = []
        results: list[RunResult] = []
        for kernel in kernels:
            result = self.run(kernel)
            results.append(result)
            start = trace.duration
            trace = trace.concatenated(result.trace)
            windows.append((start, trace.duration))
            trace = trace.concatenated(self.idle_trace(idle_gap))
        return SessionResult(
            trace=trace, windows=tuple(windows), results=tuple(results)
        )

    def idle_trace(self, duration: float) -> PowerTrace:
        """What the rig sees with no load: the platform's idle power
        (which on several platforms differs from the fitted ``pi1``)."""
        trace = PowerTrace.constant(self.config.idle_power, duration)
        if self.rng is not None:
            trace = apply_trace_noise(
                self.rng, trace, self.config.effects.noise.power_sigma
            )
        return trace

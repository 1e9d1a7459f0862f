"""The fleet feasibility/cost matrix: every bin on every platform.

For each (workload bin, platform) pair this evaluates the capped and
the uncapped energy-roofline model and records what the optimizer
needs.  Each platform is evaluated once per precision, over all its
bins at once: one array call each of :func:`repro.core.model.time` and
:func:`repro.core.model.energy`, capped and uncapped.  An algorithm bin
takes its ``(W, Q)`` from ``instance(n, Z)`` with the platform's fast
memory ``Z`` (:func:`repro.apps.analysis.fast_memory_capacity`); a raw
bin gives them directly.  Every field equals, bit for bit, what the
pair evaluated on its own gives: :func:`repro.apps.analysis.evaluate`,
capped and uncapped, for an algorithm bin, and the scalar model calls
for a raw one (tests/fleet/test_evaluate.py holds the two equal).

``time``/``energy``
    Per-job predictions of the capped model.
``node_power``
    The *governor-consistent* draw of a node running this bin flat
    out.  Under the capped model ``E/T = pi1 + min(E_dyn/T_nom,
    delta_pi)`` exactly -- the same cap :func:`repro.machine.governor.
    run_governor` enforces -- so rack power sums this, never the
    nominal (uncapped) draw, which can exceed ``pi1 + delta_pi`` and
    would over-commit the budget (see ``TestGovernorAwarePower`` in
    tests/fleet/test_evaluate.py).
``uncapped_node_power``
    The nominal draw, reported so the over-commitment is visible.
``jobs_per_node``
    ``a_ij = horizon / time``: jobs one node finishes in the planning
    window.

Pairs that cannot run -- unsupported precision, non-finite
predictions from a pathological theta-hat, residency violations --
become typed :class:`FleetExclusion` rows instead of poisoning the
solve, with the reasons :func:`repro.apps.analysis.exclusion_reason`
gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..apps.algorithms import Algorithm, AlgorithmInstance
from ..apps.analysis import fast_memory_capacity
from ..core import model
from ..machine.config import PlatformConfig
from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .workload import WorkloadBin, WorkloadSpec, algorithm_by_name

__all__ = [
    "BinOnPlatform",
    "EvaluationMatrix",
    "FleetExclusion",
    "evaluate_fleet",
]


@dataclass(frozen=True)
class BinOnPlatform:
    """One feasible (bin, platform) pairing with its model numbers."""

    bin_label: str
    platform_id: str
    time: float  #: s per job.
    energy: float  #: J per job.
    node_power: float  #: W, capped (governor-consistent) draw.
    uncapped_node_power: float  #: W, nominal draw (may exceed the cap).
    jobs_per_node: float  #: jobs one node completes over the horizon.


@dataclass(frozen=True)
class FleetExclusion:
    """Why one platform cannot serve one bin."""

    bin_label: str
    platform_id: str
    reason: str


@dataclass(frozen=True)
class EvaluationMatrix:
    """All feasible pairings plus exclusions, in deterministic order.

    ``entries`` is ordered (bin, platform) by ``bin_labels`` then
    ``platform_ids``; both axis tuples are sorted-stable inputs the
    solver indexes by position.
    """

    bin_labels: tuple[str, ...]
    platform_ids: tuple[str, ...]
    entries: tuple[BinOnPlatform, ...]
    exclusions: tuple[FleetExclusion, ...]
    horizon: float

    def entry(self, bin_label: str, platform_id: str) -> BinOnPlatform | None:
        for e in self.entries:
            if e.bin_label == bin_label and e.platform_id == platform_id:
                return e
        return None

    def feasible_platforms(self, bin_label: str) -> tuple[str, ...]:
        return tuple(
            e.platform_id for e in self.entries if e.bin_label == bin_label
        )


def _entry(
    bin_: WorkloadBin,
    platform_id: str,
    config: PlatformConfig,
    instance: AlgorithmInstance | None,
    horizon: float,
    prediction: tuple[float, float, float, float],
) -> BinOnPlatform | str:
    """A matrix entry from one bin's capped and uncapped (time,
    energy), or the exclusion reason string."""
    t, e, t0, e0 = prediction
    if not math.isfinite(t) or t <= 0:
        return f"non-finite or non-positive predicted time ({t!r})"
    if not math.isfinite(e) or e <= 0:
        return f"non-finite or non-positive predicted energy ({e!r})"
    if bin_.resident and instance is not None and not instance.fits_fast_memory:
        return (
            f"working set {instance.working_set:.3g} B exceeds "
            f"fast memory {instance.Z:.3g} B"
        )
    power = e / t
    # Defensive: the capped model guarantees this, and the solver's
    # rack-power accounting is only sound if it holds.
    cap = config.max_model_power
    if power > cap * (1 + 1e-9):
        return (
            f"capped draw {power:.6g} W exceeds pi1+delta_pi "
            f"{cap:.6g} W (inconsistent parameters)"
        )
    return BinOnPlatform(
        bin_label=bin_.label,
        platform_id=platform_id,
        time=t,
        energy=e,
        node_power=power,
        uncapped_node_power=e0 / t0 if t0 > 0 else math.inf,
        jobs_per_node=horizon / t,
    )


def _evaluate_platform(
    workload: WorkloadSpec,
    algorithms: list[Algorithm | None],
    platform_id: str,
    config: PlatformConfig,
) -> list[BinOnPlatform | str]:
    """Every bin on one platform, in bin order: one array evaluation of
    the model per precision, capped and uncapped."""
    z = fast_memory_capacity(config)
    out: list[BinOnPlatform | str] = [""] * len(workload.bins)
    rows: dict[str, list[tuple[int, AlgorithmInstance | None, float, float]]]
    rows = {}
    for b, (bin_, algorithm) in enumerate(zip(workload.bins, algorithms)):
        instance: AlgorithmInstance | None = None
        flops, bytes_moved = bin_.flops, bin_.bytes_moved
        if algorithm is not None:
            try:
                instance = algorithm.instance(bin_.n, z)
            except ValueError as err:
                out[b] = str(err)
                continue
            flops, bytes_moved = instance.flops, instance.bytes_moved
        rows.setdefault(bin_.precision, []).append(
            (b, instance, flops, bytes_moved)
        )
    for precision, group in rows.items():
        w = np.array([row[2] for row in group], dtype=float)
        q = np.array([row[3] for row in group], dtype=float)
        try:
            # (capped time, capped energy, uncapped time, uncapped energy)
            columns = [
                fn(config.truth, w, q, capped=capped, precision=precision)
                .tolist()
                for capped in (True, False)
                for fn in (model.time, model.energy)
            ]
        except ValueError as err:  # no parameters for this precision
            for b, *_ in group:
                out[b] = str(err)
            continue
        for (b, instance, _, _), prediction in zip(group, zip(*columns)):
            out[b] = _entry(
                workload.bins[b],
                platform_id,
                config,
                instance,
                workload.horizon,
                prediction,
            )
    return out


def evaluate_fleet(
    workload: WorkloadSpec,
    configs: dict[str, PlatformConfig],
    *,
    recorder: TraceRecorder = NULL_RECORDER,
) -> EvaluationMatrix:
    """Evaluate every bin on every platform (deterministic order).

    Platforms are walked in sorted-id order regardless of ``configs``
    insertion order, mirroring :func:`repro.apps.analysis.
    rank_platforms`.
    """
    if not configs:
        raise ValueError("evaluate_fleet needs at least one platform")
    platform_ids = tuple(sorted(configs))
    with recorder.span(
        "fleet_evaluate",
        bins=len(workload.bins),
        platforms=len(platform_ids),
    ):
        algorithms = [
            None if bin_.is_raw else algorithm_by_name(bin_.algorithm)
            for bin_ in workload.bins
        ]
        columns = [
            _evaluate_platform(workload, algorithms, pid, configs[pid])
            for pid in platform_ids
        ]
        entries: list[BinOnPlatform] = []
        exclusions: list[FleetExclusion] = []
        for b, bin_ in enumerate(workload.bins):
            for pid, column in zip(platform_ids, columns):
                out = column[b]
                if isinstance(out, str):
                    exclusions.append(FleetExclusion(bin_.label, pid, out))
                else:
                    entries.append(out)
    return EvaluationMatrix(
        bin_labels=workload.labels,
        platform_ids=platform_ids,
        entries=tuple(entries),
        exclusions=tuple(exclusions),
        horizon=workload.horizon,
    )

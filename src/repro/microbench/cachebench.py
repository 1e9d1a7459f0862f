"""Cache microbenchmarks (Section IV-g).

Streaming sweeps whose working sets are pinned inside one cache level,
giving the per-level bandwidths and inclusive energies (eps_L1,
eps_L2).  On GPUs the paper uses shared memory / scratchpad where the
L1 is not a data cache; the platform registry models those as the
corresponding level, so the sweep code is uniform.

:func:`working_set_staircase` additionally reproduces the classic
working-set-size sweep through the trace-driven cache simulator -- the
measurement that locates capacity boundaries in the first place.
"""

from __future__ import annotations

import numpy as np

from ..machine.cache import hierarchy_from_level_params
from ..machine.config import PlatformConfig
from ..machine.trace import stream_trace
from .kernels import cache_kernel
from .runner import BenchmarkRunner, Observation

__all__ = ["cache_sweep", "working_set_staircase"]


def cache_sweep(
    runner: BenchmarkRunner,
    *,
    replicates: int = 2,
    levels: tuple[str, ...] | None = None,
) -> dict[str, list[Observation]]:
    """Run the cache-resident streaming benchmark per modelled level.

    Returns observations keyed by level name; levels without modelled
    capacities are skipped (they cannot be pinned).
    """
    config = runner.config
    wanted = levels if levels is not None else tuple(
        c.name for c in config.truth.caches if c.capacity is not None
    )
    labels = {f"cache:{level}": level for level in wanted}
    results: dict[str, list[Observation]] = {level: [] for level in wanted}
    for obs in runner.execute_sweep(
        [(cache_kernel(config, level), label) for label, level in labels.items()],
        replicates,
    ):
        results[labels[obs.benchmark]].append(obs)
    return results


def working_set_staircase(
    config: PlatformConfig,
    *,
    sizes: np.ndarray | None = None,
    seed: int = 0,
) -> list[tuple[int, str, float]]:
    """Hit behaviour versus working-set size (trace-driven).

    For each size, a warm sequential sweep is replayed through the
    cache simulator; returns ``(size, serving_level, fraction)`` where
    ``fraction`` is the share of accesses served by that level.  The
    transitions land at the modelled capacities -- the staircase a real
    cachebench plots.
    """
    del seed  # deterministic pattern; parameter kept for interface parity
    hierarchy = hierarchy_from_level_params(config.truth.caches, config.line_size)
    if hierarchy is None:
        raise ValueError(f"{config.name} models no cache capacities")
    capacities = [sim.geometry.capacity for sim in hierarchy.levels]
    if sizes is None:
        smallest, largest = min(capacities), max(capacities)
        sizes = np.unique(
            np.concatenate(
                [
                    (np.array([0.25, 0.5]) * smallest).astype(int),
                    np.asarray(capacities, dtype=int) * 2,
                    [largest * 8],
                ]
            )
        )
    out: list[tuple[int, str, float]] = []
    for size in sizes:
        size = int(size)
        hierarchy.flush()
        addrs = stream_trace(size, hierarchy.line_size)
        hierarchy.warm(addrs)
        stats = hierarchy.run_trace(addrs)
        # Dominant serving level for this size.
        best_level, best_fraction = "dram", stats.fraction_from("dram")
        for name in hierarchy.level_names:
            fraction = stats.fraction_from(name)
            if fraction > best_fraction:
                best_level, best_fraction = name, fraction
        out.append((size, best_level, best_fraction))
    return out

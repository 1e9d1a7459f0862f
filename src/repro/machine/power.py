"""Piecewise-constant power traces.

The simulated platforms emit their power draw as a piecewise-constant
function of time: one value per governor control interval (plus
interference events).  This is the ground-truth signal that the
simulated PowerMon 2 later samples at 1024 Hz -- exactly the separation
the real rig has between the device under test and the measurement
probes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["PowerTrace", "RaggedTraces"]


@dataclass(frozen=True)
class PowerTrace:
    """A piecewise-constant power signal.

    ``edges`` holds the ``n + 1`` segment boundaries in seconds starting
    at 0.0 and strictly increasing; ``values`` holds the ``n`` segment
    powers in Watts.  The trace is defined on ``[edges[0], edges[-1])``.
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)
        if edges.ndim != 1 or values.ndim != 1:
            raise ValueError("edges and values must be 1-D")
        if len(edges) != len(values) + 1:
            raise ValueError(
                f"need len(edges) == len(values) + 1, got {len(edges)} and {len(values)}"
            )
        if len(values) == 0:
            raise ValueError("trace must contain at least one segment")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("power values must be non-negative")

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, power: float, duration: float) -> "PowerTrace":
        """A single-segment trace of ``power`` Watts for ``duration`` s."""
        if not duration > 0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        return cls(np.array([0.0, duration]), np.array([float(power)]))

    @classmethod
    def from_durations(
        cls, durations: np.ndarray, values: np.ndarray
    ) -> "PowerTrace":
        """Build from per-segment durations instead of absolute edges."""
        durations = np.asarray(durations, dtype=float)
        if np.any(durations <= 0):
            raise ValueError("all durations must be positive")
        edges = np.concatenate([[0.0], np.cumsum(durations)])
        return cls(edges, np.asarray(values, dtype=float))

    # ------------------------------------------------------------------
    # Basic quantities.
    # ------------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Total trace length in seconds."""
        return float(self.edges[-1] - self.edges[0])

    @property
    def segment_durations(self) -> np.ndarray:
        """Length of each segment in seconds."""
        return np.diff(self.edges)

    def energy(self) -> float:
        """Exact integral of the trace, in Joules."""
        return float(np.dot(self.segment_durations, self.values))

    def average_power(self) -> float:
        """Exact time-average power, in Watts."""
        return self.energy() / self.duration

    # ------------------------------------------------------------------
    # Sampling and transformation.
    # ------------------------------------------------------------------

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Instantaneous power at the given times (W).

        Times outside the trace raise ``ValueError`` -- the measurement
        layer must align its sampling window with the run.
        """
        times = np.asarray(times, dtype=float)
        if np.any(times < self.edges[0]) or np.any(times > self.edges[-1]):
            raise ValueError("sample times must lie within the trace")
        # searchsorted with 'right' maps a time to the segment it falls in;
        # the final edge belongs to the last segment.
        idx = np.searchsorted(self.edges, times, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return self.values[idx]

    def scaled(self, factor: float) -> "PowerTrace":
        """Trace with all powers multiplied by ``factor`` (rail splits)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return PowerTrace(self.edges.copy(), self.values * factor)


class RaggedTraces(Mapping):
    """Many power traces in one flat layout, indexed like a list.

    Trace ``i``'s segment powers are ``values[offsets[i]:offsets[i+1]]``
    and its edges are ``edges[offsets[i] + i:offsets[i+1] + i + 1]`` (a
    trace has one more edge than segments).  A whole sweep's traces
    then go through array code at once; ``traces[i]`` materialises one
    as a :class:`PowerTrace`.  Construction makes the checks
    :class:`PowerTrace` makes, on every trace at once.
    """

    def __init__(
        self, edges: np.ndarray, values: np.ndarray, offsets: np.ndarray
    ) -> None:
        self.edges = np.asarray(edges, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        n = len(self.offsets) - 1
        if n < 0 or self.offsets[0] != 0 or self.offsets[-1] != len(self.values):
            raise ValueError("offsets must run from 0 to len(values)")
        if len(self.edges) != len(self.values) + n:
            raise ValueError("need one more edge than segments per trace")
        if np.any(np.diff(self.offsets) < 1):
            raise ValueError("trace must contain at least one segment")
        #: Positions of each trace's first and last edge.
        self.first = self.offsets[:-1] + np.arange(n)
        self.last = self.offsets[1:] + np.arange(n)
        steps = np.diff(self.edges)
        steps[self.last[:-1]] = 1.0  # from one trace's end to the next start
        if np.any(steps <= 0):
            raise ValueError("edges must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("power values must be non-negative")

    @classmethod
    def from_traces(cls, traces: Sequence[PowerTrace]) -> "RaggedTraces":
        """The flat layout of ``traces``, in order."""
        counts = [len(trace.values) for trace in traces]
        return cls(
            np.concatenate([trace.edges for trace in traces]),
            np.concatenate([trace.values for trace in traces]),
            np.concatenate([[0], np.cumsum(counts)]),
        )

    @property
    def durations(self) -> np.ndarray:
        """Each trace's :attr:`PowerTrace.duration`, seconds."""
        return self.edges[self.last] - self.edges[self.first]

    @property
    def segment_counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __getitem__(self, i: int) -> PowerTrace:
        if not 0 <= i < len(self):
            raise KeyError(i)
        return PowerTrace(
            self.edges[self.first[i]:self.last[i] + 1].copy(),
            self.values[self.offsets[i]:self.offsets[i + 1]].copy(),
        )

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))

    def __len__(self) -> int:
        return len(self.offsets) - 1

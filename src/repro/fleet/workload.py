"""Workload specs for the fleet optimizer: demand as (what, how much).

A :class:`WorkloadSpec` is a histogram of demand over a planning
horizon: each :class:`WorkloadBin` names *what* runs -- one of the six
abstract algorithms of :mod:`repro.apps.algorithms` at a problem size
and precision, or a raw ``(W, Q)`` work/traffic pair -- and *how many*
jobs of it must complete within the horizon.  This is the "workload
mix (intensity histogram)", kept as (algorithm,
size) pairs rather than fixed intensities so each platform's cache
capacity yields its own intensity through ``Q(n; Z)``, exactly as the
paper's Section III intends.

The JSON form accepted by ``archline fleet --workload``::

    {
      "horizon": 3600.0,
      "bins": [
        {"algorithm": "matmul", "n": 8192, "jobs": 200},
        {"algorithm": "fft", "n": 16777216, "jobs": 500,
         "precision": "single"},
        {"W": 1e12, "Q": 2.5e10, "jobs": 50, "label": "custom-kernel"}
      ]
    }

``horizon`` is the planning window in seconds (default one hour); a
bin is either ``{"algorithm", "n"}`` or raw ``{"W", "Q"}``, never
both.  ``resident`` (default false) demands the bin's working set fit
in a platform's fast memory (see
:func:`repro.apps.analysis.exclusion_reason`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from ..apps.algorithms import (
    Algorithm,
    fft,
    matrix_multiply,
    sort_mergesort,
    spmv_csr,
    stencil,
    stream_triad,
)

__all__ = [
    "ALGORITHM_NAMES",
    "WorkloadBin",
    "WorkloadSpec",
    "algorithm_by_name",
]

#: The six named algorithms a bin may reference.
_ALGORITHM_BUILDERS = {
    "matmul": matrix_multiply,
    "fft": fft,
    "stencil": stencil,
    "triad": stream_triad,
    "spmv": spmv_csr,
    "mergesort": sort_mergesort,
}

ALGORITHM_NAMES: tuple[str, ...] = tuple(sorted(_ALGORITHM_BUILDERS))

_PRECISIONS = ("single", "double")


def algorithm_by_name(name: str) -> Algorithm:
    """The named abstract algorithm with its default parameters."""
    try:
        builder = _ALGORITHM_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from "
            f"{', '.join(ALGORITHM_NAMES)}"
        ) from None
    return builder()


def _require_number(name: str, value: Any, *, positive: bool = True) -> None:
    """Reject all but a finite number (an int or a float, never a bool
    or a string) above zero, or at or above it unless ``positive``."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok:
        try:
            ok = math.isfinite(value) and (value > 0 if positive else value >= 0)
        except OverflowError:  # an int beyond the float range
            ok = False
    if not ok:
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a finite {kind} number, got {value!r}")


@dataclass(frozen=True)
class WorkloadBin:
    """One demand bin: ``jobs`` runs of one workload within the horizon.

    Exactly one of ``(algorithm, n)`` and ``(flops, bytes_moved)`` is
    set; the latter is the raw ``(W, Q)`` form with a platform-
    independent traffic count.
    """

    jobs: float
    algorithm: str | None = None
    n: float | None = None
    precision: str = "single"
    flops: float | None = None  #: raw W, work units per job.
    bytes_moved: float | None = None  #: raw Q, bytes per job.
    resident: bool = False  #: demand the working set fit in fast memory.
    label: str = ""  #: display name; derived when empty.

    def __post_init__(self) -> None:
        _require_number("jobs", self.jobs)
        if self.precision not in _PRECISIONS:
            raise ValueError(
                f"precision must be one of {_PRECISIONS}, "
                f"got {self.precision!r}"
            )
        algorithmic = self.algorithm is not None or self.n is not None
        raw = self.flops is not None or self.bytes_moved is not None
        if algorithmic == raw:
            raise ValueError(
                "a bin needs either (algorithm, n) or (W, Q), not both "
                "and not neither"
            )
        if algorithmic:
            if self.algorithm is None or self.n is None:
                raise ValueError("algorithm bins need both algorithm and n")
            if not isinstance(self.algorithm, str):
                raise ValueError(
                    f"algorithm must be a string, got {self.algorithm!r}"
                )
            algorithm_by_name(self.algorithm)  # validates the name
            _require_number("n", self.n)
        else:
            if self.flops is None or self.bytes_moved is None:
                raise ValueError("raw bins need both W and Q")
            _require_number("W", self.flops)
            _require_number("Q", self.bytes_moved, positive=False)
        if not isinstance(self.resident, bool):
            raise ValueError(
                f"resident must be true or false, got {self.resident!r}"
            )
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.algorithm is not None:
            suffix = "" if self.precision == "single" else f",{self.precision}"
            return f"{self.algorithm}(n={self.n:g}{suffix})"
        return f"raw(W={self.flops:g},Q={self.bytes_moved:g})"

    @property
    def is_raw(self) -> bool:
        return self.algorithm is None

    def to_obj(self) -> dict[str, Any]:
        """The JSON-ready form (round-trips through ``from_obj``)."""
        obj: dict[str, Any] = {"jobs": self.jobs, "label": self.label}
        if self.algorithm is not None:
            obj["algorithm"] = self.algorithm
            obj["n"] = self.n
            obj["precision"] = self.precision
        else:
            obj["W"] = self.flops
            obj["Q"] = self.bytes_moved
        if self.resident:
            obj["resident"] = True
        return obj

    @classmethod
    def from_obj(cls, obj: Any) -> "WorkloadBin":
        if not isinstance(obj, dict):
            raise ValueError(f"a workload bin must be an object, got {obj!r}")
        known = {
            "jobs", "algorithm", "n", "precision", "W", "Q", "resident",
            "label",
        }
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ValueError(f"unknown workload bin field(s): {', '.join(unknown)}")
        if "jobs" not in obj:
            raise ValueError("a workload bin needs a 'jobs' count")
        return cls(
            jobs=obj["jobs"],
            algorithm=obj.get("algorithm"),
            n=obj.get("n"),
            precision=obj.get("precision", "single"),
            flops=obj.get("W"),
            bytes_moved=obj.get("Q"),
            resident=obj.get("resident", False),
            label=obj.get("label", ""),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A demand histogram over one planning horizon."""

    bins: tuple[WorkloadBin, ...]
    horizon: float = 3600.0  #: planning window, seconds.

    def __post_init__(self) -> None:
        _require_number("horizon", self.horizon)
        if not self.bins:
            raise ValueError("a workload needs at least one bin")
        labels = [b.label for b in self.bins]
        dupes = sorted({lab for lab in labels if labels.count(lab) > 1})
        if dupes:
            raise ValueError(
                f"duplicate workload bin label(s): {', '.join(dupes)}; "
                f"give colliding bins explicit 'label' fields"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.bins)

    def to_obj(self) -> dict[str, Any]:
        return {
            "horizon": self.horizon,
            "bins": [b.to_obj() for b in self.bins],
        }

    @classmethod
    def from_obj(cls, obj: Any) -> "WorkloadSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"a workload spec must be an object, got {obj!r}")
        unknown = sorted(set(obj) - {"horizon", "bins"})
        if unknown:
            raise ValueError(f"unknown workload field(s): {', '.join(unknown)}")
        bins = obj.get("bins")
        if not isinstance(bins, list):
            raise ValueError("workload 'bins' must be a list")
        return cls(
            bins=tuple(WorkloadBin.from_obj(b) for b in bins),
            horizon=obj.get("horizon", 3600.0),
        )

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"workload is not valid JSON: {err}") from None
        return cls.from_obj(obj)

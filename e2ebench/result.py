"""What one benchmark run reports: operation counts, checks, metrics."""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator


def rounds(seconds: float, minimum: int, started: float) -> Iterator[int]:
    """Round numbers to run: at least ``minimum``, then more while one
    more round of the average length so far still ends within
    ``seconds`` of ``started`` (a ``time.perf_counter`` reading)."""
    first = time.perf_counter()
    k = 0
    while k < minimum or (
        time.perf_counter() - started + (time.perf_counter() - first) / k <= seconds
    ):
        yield k
        k += 1


@dataclass
class Run:
    """Accumulates one run's operations, checks and metric samples.

    Operations are program processes, HTTP requests and output checks;
    a non-zero exit, a non-200 response, a timeout or a failed check is
    a failed operation.  Each metric is reported as the median of its
    samples.
    """

    attempted: int = 0
    failed: int = 0
    checks: int = 0
    checks_failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr, flush=True)
        return ok

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str) -> bool:
        self.checks += 1
        self.checks_failed += not ok
        return self.op(ok, f"check {what}")

    def add(self, name: str, value: float, unit: str) -> None:
        self.samples.setdefault(name, []).append(float(value))
        self.units[name] = unit

    def metrics(self) -> dict[str, dict[str, float | str]]:
        return {
            name: {"value": statistics.median(values), "unit": self.units[name]}
            for name, values in sorted(self.samples.items())
        }

    def result_line(self, metrics: dict[str, dict[str, float | str]]) -> str:
        return json.dumps(
            {
                "correct": self.checks > 0 and self.checks_failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            }
        )

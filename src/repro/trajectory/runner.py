"""Run the perf-trajectory suite and read/write its JSON report.

``run_suite`` executes the five fixed campaigns
(:data:`repro.trajectory.suite.SUITE`) and assembles the
schema-versioned report dict; ``write_report``/``load_report``
round-trip it through ``BENCH_campaign.json`` (validating on both
sides, so a malformed baseline fails loudly rather than silently
passing every comparison).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from ..store.atomic import atomic_write_text
from .schema import (
    REPORT_KIND,
    SCHEMA_VERSION,
    environment_fingerprint,
    validate_report,
)
from .suite import SUITE

__all__ = ["DEFAULT_REPORT_NAME", "run_suite", "write_report", "load_report"]

#: The committed baseline's file name, at the repo root.
DEFAULT_REPORT_NAME = "BENCH_campaign.json"


def run_suite(
    *,
    seed: int = 2014,
    quick: bool = False,
    progress: Callable[[str, dict], None] | None = None,
) -> dict[str, Any]:
    """Execute every suite campaign and return the validated report.

    ``progress`` (if given) is called with ``(campaign_name, metrics)``
    as each campaign completes.
    """
    campaigns: dict[str, dict] = {}
    for name, fn in SUITE.items():
        metrics = fn(seed=seed, quick=quick)
        campaigns[name] = metrics
        if progress is not None:
            progress(name, metrics)
    report = {
        "schema": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "environment": environment_fingerprint(),
        "campaigns": campaigns,
    }
    validate_report(report)
    return report


def write_report(path: str | Path, report: dict[str, Any]) -> Path:
    """Validate and write a report as stable, diffable JSON.

    The write is atomic (temp file + ``os.replace``): a crash or a
    full disk mid-write leaves any existing baseline untouched instead
    of replacing it with a truncated file that every later ``--check``
    would fail against.
    """
    validate_report(report)
    return atomic_write_text(
        path,
        json.dumps(_rounded(report), indent=2, sort_keys=True) + "\n",
    )


def load_report(path: str | Path) -> dict[str, Any]:
    """Read and validate a report file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not JSON ({err})") from None
    validate_report(obj)
    return obj


def _rounded(value: Any) -> Any:
    """Round floats for a stable on-disk form (6 significant digits --
    far below measurement noise, far above comparison thresholds)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value

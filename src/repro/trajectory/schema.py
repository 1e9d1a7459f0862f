"""Schema of ``BENCH_campaign.json``: the repo's perf-trajectory record.

One report per PR, committed at the repo root, so every speed claim
survives across PRs as a diffable artifact.  The
report is a single JSON object::

    {
      "schema": 1,
      "kind": "bench_campaign",
      "environment": {"python": ..., "numpy": ..., "platform": ...,
                      "machine": ..., "cpu_count": ...},
      "campaigns": {
        "uncapped_sweep":  {"wall_seconds": ..., "runs_per_second": ...,
                            "n_runs": ..., ...},
        "capped_sweep":    {... "n_throttled", "speedup_vs_scalar" ...},
        "faulted_campaign":{... shard counters ...},
        "cached_campaign": {... "warm_speedup", "cache_hits",
                            "fits_identical" ...},
        "fleet_small":     {... "n_pairs", "states_explored",
                            "optimal" ...}
      }
    }

Every campaign entry must carry a finite, non-negative
``wall_seconds`` -- the quantity the comparator gates on -- plus
whatever campaign-specific metrics its suite function reports
(validated as finite numbers).  The validator below is hand rolled (no
jsonschema dependency), in the same style as
:mod:`repro.telemetry.jsonl`.

The environment fingerprint names the interpreter/library/host the
numbers were measured on: wall times are only comparable between like
environments, and the comparator prints both fingerprints when they
disagree so a regression on different hardware can be triaged as such.
"""

from __future__ import annotations

import math
import os
import platform as _platform
from typing import Any

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "REPORT_KIND",
    "SUITE_CAMPAIGNS",
    "environment_fingerprint",
    "validate_report",
]

SCHEMA_VERSION = 1
REPORT_KIND = "bench_campaign"

#: The fixed campaign suite every report must cover, in run order.
SUITE_CAMPAIGNS = (
    "uncapped_sweep",
    "capped_sweep",
    "faulted_campaign",
    "cached_campaign",
    "fleet_small",
)

#: Environment fields every report carries (all strings except
#: ``cpu_count``).
_ENV_FIELDS = ("python", "numpy", "platform", "machine", "cpu_count")


def environment_fingerprint() -> dict[str, Any]:
    """The measuring environment, as stored under ``"environment"``."""
    return {
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "platform": _platform.platform(),
        "machine": _platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def _fail(message: str) -> None:
    raise ValueError(f"BENCH_campaign report: {message}")


def validate_report(obj: Any) -> None:
    """Validate one report object; raises ``ValueError`` naming the
    offending field."""
    if not isinstance(obj, dict):
        _fail(f"must be an object, got {type(obj).__name__}")
    if obj.get("schema") != SCHEMA_VERSION:
        _fail(
            f"unsupported schema version {obj.get('schema')!r} "
            f"(this reader understands {SCHEMA_VERSION})"
        )
    if obj.get("kind") != REPORT_KIND:
        _fail(f"kind must be {REPORT_KIND!r}, got {obj.get('kind')!r}")

    env = obj.get("environment")
    if not isinstance(env, dict):
        _fail("environment must be an object")
    for name in _ENV_FIELDS:
        if name not in env:
            _fail(f"environment missing field {name!r}")
    if isinstance(env["cpu_count"], bool) or not isinstance(
        env["cpu_count"], int
    ):
        _fail(f"environment.cpu_count must be an int, got {env['cpu_count']!r}")

    campaigns = obj.get("campaigns")
    if not isinstance(campaigns, dict):
        _fail("campaigns must be an object")
    for name in SUITE_CAMPAIGNS:
        if name not in campaigns:
            _fail(f"campaigns missing suite campaign {name!r}")
    for name, metrics in campaigns.items():
        if not isinstance(metrics, dict):
            _fail(f"campaigns.{name} must be an object")
        if "wall_seconds" not in metrics:
            _fail(f"campaigns.{name} missing wall_seconds")
        for key, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                _fail(
                    f"campaigns.{name}.{key} must be a number, got {value!r}"
                )
            if not math.isfinite(value):
                _fail(f"campaigns.{name}.{key} must be finite, got {value!r}")
        if metrics["wall_seconds"] < 0:
            _fail(f"campaigns.{name}.wall_seconds must be non-negative")

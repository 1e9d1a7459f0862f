"""Procurable platforms: unit costs and availability limits.

A :class:`PlatformOffer` is one line of a procurement catalogue: a
platform (by Table I id, or any :class:`~repro.machine.config.
PlatformConfig` supplied programmatically), the cost of one node, and
how many nodes the vendor can supply.  The optimizer never reads
prices out of the physics -- the paper's Table I has no costs -- so
the defaults below are illustrative 2013-era street prices for a
complete node of each building block, chosen to make the cost/energy
trade-off non-degenerate in examples and tests.  Real studies should
pass their own catalogue (``archline fleet --costs costs.json``).

The JSON cost-override form maps platform id to either a bare unit
cost or an object::

    {
      "gtx-titan": 1900.0,
      "xeon-phi": {"unit_cost": 2600.0, "max_nodes": 8}
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

__all__ = [
    "DEFAULT_UNIT_COSTS",
    "PlatformOffer",
    "default_offer",
    "parse_cost_overrides",
]

#: Illustrative per-node purchase prices (USD, ca. 2013) for the
#: Table I dozen.  Not from the paper; override with ``--costs``.
DEFAULT_UNIT_COSTS: dict[str, float] = {
    "desktop-cpu": 1000.0,
    "nuc-cpu": 350.0,
    "nuc-gpu": 350.0,
    "apu-cpu": 450.0,
    "apu-gpu": 450.0,
    "gtx-580": 1400.0,
    "gtx-680": 1350.0,
    "gtx-titan": 1900.0,
    "xeon-phi": 2600.0,
    "pandaboard-es": 180.0,
    "arndale-cpu": 250.0,
    "arndale-gpu": 250.0,
}


@dataclass(frozen=True)
class PlatformOffer:
    """One procurable platform: id, unit cost, supply limit."""

    platform_id: str
    unit_cost: float  #: cost of one node, catalogue currency units.
    max_nodes: float = math.inf  #: supply cap (inf = unlimited).

    def __post_init__(self) -> None:
        if not self.platform_id:
            raise ValueError("an offer needs a platform id")
        cost = self._number("unit_cost")
        if not math.isfinite(cost) or cost < 0:
            raise ValueError(
                f"unit_cost must be finite and non-negative, got {cost!r}"
            )
        cap = self._number("max_nodes")
        if math.isnan(cap) or cap < 0:
            raise ValueError(
                f"max_nodes must be non-negative (inf ok), got {cap!r}"
            )
        if math.isfinite(cap) and cap != int(cap):
            raise ValueError(f"max_nodes must be integral, got {cap!r}")
        object.__setattr__(self, "unit_cost", cost)
        object.__setattr__(self, "max_nodes", cap)

    def _number(self, name: str) -> float:
        """Field ``name`` as a float.  Only an int or a float is a
        number: a bool or a numeric string would convert silently."""
        value = getattr(self, name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:  # an int beyond the float range
                pass
        raise ValueError(
            f"{name} for {self.platform_id} must be a number, got {value!r}"
        )


def parse_cost_overrides(text: str) -> dict[str, PlatformOffer]:
    """Parse a ``--costs`` JSON document into offers by platform id."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"costs document is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise ValueError("costs document must map platform id to cost")
    offers: dict[str, PlatformOffer] = {}
    for pid in sorted(obj):
        entry: Any = obj[pid]
        if isinstance(entry, dict):
            unknown = sorted(set(entry) - {"unit_cost", "max_nodes"})
            if unknown:
                raise ValueError(
                    f"unknown cost field(s) for {pid}: {', '.join(unknown)}"
                )
            if "unit_cost" not in entry:
                raise ValueError(f"cost entry for {pid} needs 'unit_cost'")
            offers[pid] = PlatformOffer(
                pid, entry["unit_cost"], entry.get("max_nodes", math.inf)
            )
        else:
            offers[pid] = PlatformOffer(pid, entry)
    return offers


def default_offer(platform_id: str) -> PlatformOffer:
    """The built-in catalogue entry for a Table I platform."""
    try:
        cost = DEFAULT_UNIT_COSTS[platform_id]
    except KeyError:
        raise ValueError(
            f"no default unit cost for platform {platform_id!r}; "
            f"supply one via a costs document"
        ) from None
    return PlatformOffer(platform_id, cost)

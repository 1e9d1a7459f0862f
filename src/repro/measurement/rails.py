"""Power-rail topologies (Fig. 3 of the paper).

Different platform classes draw power through different paths, and the
rig probes each path separately:

* **CPU systems** -- PowerMon intercepts the CPU's 12 V EPS rail and
  the motherboard/ATX feed that powers the DRAM;
* **discrete GPUs** -- the PCIe slot (measured by the custom
  interposer, at most 75 W) plus one or two auxiliary 12 V PCIe
  connectors;
* **mobile boards** -- a single DC power brick carrying the whole
  system.

The simulator knows only the platform's *total* power trace; a rail
topology splits it into per-rail traces for the instrument, respecting
the PCIe slot's 75 W budget for GPUs.  Only the sum is analytically
meaningful -- exactly as in the paper -- but the split exercises the
multi-channel measurement path and the interposer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.config import PlatformConfig
from ..machine.power import PowerTrace

__all__ = ["RailTopology", "topology_for", "PCIE_SLOT_LIMIT"]

#: Power the PCIe slot may deliver (W), per the specification.
PCIE_SLOT_LIMIT = 75.0


@dataclass(frozen=True)
class RailTopology:
    """How one platform's total power divides across measured rails."""

    name: str
    rails: tuple[str, ...]
    #: Fraction of total power carried by each rail *below* any limit.
    fractions: tuple[float, ...]
    #: Hard per-rail caps in W (inf = unlimited); overflow spills onto
    #: the later rails proportionally to their fractions.
    limits: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.rails:
            raise ValueError("topology needs at least one rail")
        if len(self.rails) != len(self.fractions) or len(self.rails) != len(self.limits):
            raise ValueError("rails, fractions, limits must have equal lengths")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(self.fractions)}")
        if any(f < 0 for f in self.fractions):
            raise ValueError("fractions must be non-negative")

    def split(self, trace: PowerTrace) -> dict[str, PowerTrace]:
        """Split a total-power trace into per-rail traces.

        Per segment: each rail takes its fraction of total power,
        clipped at its limit; clipped overflow is redistributed over
        rails with headroom (pro rata by fraction).  The rail powers
        always sum exactly to the total.  :meth:`shares` does the work.
        """
        alloc = self.shares(trace.values).T.copy()
        return {
            rail: PowerTrace(trace.edges.copy(), alloc[k])
            for k, rail in enumerate(self.rails)
        }

    def shares(self, values: np.ndarray) -> np.ndarray:
        """The ``(segments x rails)`` rail powers of segment powers
        ``values``; each row depends on its own segment alone, so one
        call can split every segment of a whole sweep.

        The work is whole-array over that matrix: one pass computes
        every segment's fractional shares, clips them at the limits and
        sums each segment's spill.  At most one masked pass per rail
        then redistributes spill, and each pass touches only the
        segments still spilling -- usually a small minority.  A pass
        tops up the rails with headroom pro rata by fraction (by count
        when those fractions are all zero); a segment with no headroom
        left browns out, taking the spill pro rata on every rail.
        Every sum over a segment's rails is a row reduction, the same
        reduction ``np.sum`` applies to one segment, so each rail power
        is bit-identical to a per-segment loop.
        """
        fractions = np.asarray(self.fractions)
        limits = np.asarray(self.limits)
        share = np.asarray(values)[:, None] * fractions
        spill = np.add.reduce(np.maximum(share - limits, 0.0), axis=1)
        share = np.minimum(share, limits)
        # ``~(x <= tol)`` rather than ``x > tol`` keeps NaN spill (infinite
        # power on an unlimited rail) live, as the per-segment loop does.
        live = np.flatnonzero(~(spill <= 1e-12))
        for _ in range(len(self.rails)):
            if live.size == 0:
                break
            rows = share[live]
            left = spill[live]
            headroom = limits - rows
            open_rails = headroom > 1e-12
            has_room = open_rails.any(axis=1)
            # No headroom anywhere: violate limits pro rata (the
            # hardware would brown out; we keep the sum).
            out = ~has_room
            share[live[out]] = rows[out] + left[out, None] * fractions
            live, rows, left = live[has_room], rows[has_room], left[has_room]
            headroom, open_rails = headroom[has_room], open_rails[has_room]
            weights = np.where(open_rails, fractions, 0.0)
            unweighted = np.add.reduce(weights, axis=1) == 0.0
            weights[unweighted] = open_rails[unweighted]
            weights = weights / np.add.reduce(weights, axis=1)[:, None]
            add = np.minimum(left[:, None] * weights, headroom)
            share[live] = rows + add
            left = left - np.add.reduce(add, axis=1)
            still = ~(left <= 1e-12)
            live = live[still]
            spill[live] = left[still]
        return share


def topology_for(config: PlatformConfig) -> RailTopology:
    """The measurement topology appropriate to a platform's class.

    GPUs above the slot budget get auxiliary connectors sized like the
    real cards (6-pin = 75 W, 8-pin = 150 W); mobile/low-power systems
    are measured at their DC brick; CPU systems at EPS + ATX.
    """
    truth = config.truth
    peak = config.max_model_power
    if config.kind == "gpu" and peak > PCIE_SLOT_LIMIT:
        if peak > PCIE_SLOT_LIMIT + 75.0 + 150.0:
            raise ValueError(
                f"{truth.name}: peak power {peak:.0f} W exceeds slot+6pin+8pin"
            )
        if peak > PCIE_SLOT_LIMIT + 150.0:
            rails = ("pcie_slot", "pcie_8pin", "pcie_6pin")
            fractions = (0.3, 0.45, 0.25)
            limits = (PCIE_SLOT_LIMIT, 150.0, 75.0)
        else:
            rails = ("pcie_slot", "pcie_6pin")
            fractions = (0.4, 0.6)
            limits = (PCIE_SLOT_LIMIT, 150.0)
        return RailTopology(
            name="discrete-gpu", rails=rails, fractions=fractions, limits=limits
        )
    if config.kind == "manycore":
        return RailTopology(
            name="coprocessor",
            rails=("pcie_slot", "pcie_8pin"),
            fractions=(0.25, 0.75),
            limits=(PCIE_SLOT_LIMIT, 225.0),
        )
    if peak <= 25.0:
        return RailTopology(
            name="dc-brick", rails=("brick",), fractions=(1.0,), limits=(np.inf,)
        )
    return RailTopology(
        name="cpu-system",
        rails=("eps_12v", "atx"),
        fractions=(0.7, 0.3),
        limits=(np.inf, np.inf),
    )

"""Unit conventions and conversion helpers.

Everything inside :mod:`repro` uses unprefixed SI units:

========== ========================= =======
quantity   unit                      symbol
========== ========================= =======
time       seconds                   s
energy     Joules                    J
power      Watts                     W
work       floating-point operations flop
traffic    bytes                     B
intensity  flop per byte             flop/B
========== ========================= =======

The paper (and Table I in particular) reports values with a mix of SI
prefixes -- picojoules per flop, gigaflops per second, nanojoules per
access.  The helpers in this module convert between those report units
and the internal SI representation, so the conversion factors live in
exactly one place.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# SI prefixes (multipliers relative to the base unit).
# ---------------------------------------------------------------------------

PICO: float = 1e-12
NANO: float = 1e-9
MICRO: float = 1e-6
MILLI: float = 1e-3
KILO: float = 1e3
MEGA: float = 1e6
GIGA: float = 1e9
TERA: float = 1e12

#: Bytes in one KiB/MiB/GiB (binary, used for cache capacities).
KIB: int = 1024
MIB: int = 1024 * KIB
GIB: int = 1024 * MIB


# ---------------------------------------------------------------------------
# Report-unit -> SI conversions (Table I conventions).
# ---------------------------------------------------------------------------

def pJ(value: float) -> float:
    """Convert picojoules to Joules (``eps_flop``/``eps_mem`` columns)."""
    return value * PICO


def nJ(value: float) -> float:
    """Convert nanojoules to Joules (``eps_rand`` column)."""
    return value * NANO


def gflops(value: float) -> float:
    """Convert Gflop/s to flop/s (throughput columns)."""
    return value * GIGA


def gbps(value: float) -> float:
    """Convert GB/s to B/s (bandwidth columns)."""
    return value * GIGA


def maccs(value: float) -> float:
    """Convert Macc/s (mega-accesses per second) to accesses per second."""
    return value * MEGA


# ---------------------------------------------------------------------------
# SI -> report-unit conversions (for rendering tables like the paper's).
# ---------------------------------------------------------------------------

def to_pJ(value: float) -> float:
    """Convert Joules to picojoules."""
    return value / PICO


def to_nJ(value: float) -> float:
    """Convert Joules to nanojoules."""
    return value / NANO


def to_gflops(value: float) -> float:
    """Convert flop/s to Gflop/s."""
    return value / GIGA


def to_gbps(value: float) -> float:
    """Convert B/s to GB/s."""
    return value / GIGA


def to_maccs(value: float) -> float:
    """Convert accesses/s to Macc/s."""
    return value / MEGA


# ---------------------------------------------------------------------------
# Small numeric helpers shared across the package.
# ---------------------------------------------------------------------------

def throughput_to_cost(throughput: float) -> float:
    """Invert a throughput (ops/s) into a per-op cost (s/op).

    ``throughput`` must be strictly positive; a zero or negative
    throughput has no meaningful reciprocal cost.
    """
    if not throughput > 0.0:
        raise ValueError(f"throughput must be > 0, got {throughput!r}")
    return 1.0 / throughput


def cost_to_throughput(cost: float) -> float:
    """Invert a per-op cost (s/op) into a throughput (ops/s)."""
    if not cost > 0.0:
        raise ValueError(f"cost must be > 0, got {cost!r}")
    return 1.0 / cost


def is_close(a: float, b: float, rel: float = 1e-9, absolute: float = 0.0) -> bool:
    """``math.isclose`` with the package's default tolerances."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=absolute)


def format_si(value: float, unit: str, digits: int = 3) -> str:
    """Format ``value`` with an engineering SI prefix, e.g. ``4.02 Tflop/s``.

    Values of exactly zero render without a prefix.  Negative values keep
    their sign and use the prefix of their magnitude.
    """
    prefixes = [
        (1e15, "P"), (1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k"),
        (1.0, ""), (1e-3, "m"), (1e-6, "u"), (1e-9, "n"), (1e-12, "p"),
    ]
    if value == 0.0:
        return f"0 {unit}"
    magnitude = abs(value)
    for scale, prefix in prefixes:
        if magnitude >= scale:
            return f"{value / scale:.{digits}g} {prefix}{unit}"
    scale, prefix = prefixes[-1]
    return f"{value / scale:.{digits}g} {prefix}{unit}"

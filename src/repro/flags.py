"""Range-checked argparse types for every ``archline`` subcommand.

``repro.cli`` and the serve, fleet and store parsers all take their
flag types from here.  Under ``python -m repro.cli`` the CLI module
runs as ``__main__``, so a subcommand parser that imported these from
``repro.cli`` would load that file a second time as a module of its
own.
"""

from __future__ import annotations

import argparse
import math
import os

__all__ = [
    "nonnegative_float",
    "nonnegative_int",
    "output_path",
    "port_number",
    "positive_float",
    "positive_int",
    "seed_count",
]


def _bounded_int(text: str, low: int, high: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}"
        ) from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    if high is not None and value > high:
        raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _bounded_int(text, 1)


def nonnegative_int(text: str) -> int:
    return _bounded_int(text, 0)


def port_number(text: str) -> int:
    return _bounded_int(text, 0, 65535)


def seed_count(text: str) -> int:
    # One seed has no dispersion to report.
    return _bounded_int(text, 2)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number, got {text!r}"
        ) from None
    # A bare ``type=float`` happily accepts "nan" and "inf", which then
    # poison downstream comparisons (a NaN timeout never fires, a NaN
    # budget is "within" every check).  All float CLI flags go
    # through these validators instead, and integer flags through
    # ``_bounded_int``.
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}"
        )
    return value


def positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def output_path(text: str) -> str:
    """A file the command writes when it finishes (``--trace``,
    ``--json``): checked where it is parsed, so a path that cannot be
    written is a usage error before any work starts, not a traceback
    after all of it."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"directory {parent!r} of {text!r} does not exist"
        )
    return text

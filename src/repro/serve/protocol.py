"""The predict-service wire protocol.

One query is one JSON object POSTed to ``/predict``::

    {"kernel": "matmul", "platform": "gtx-titan", "n": 2048,
     "power_cap": 80.0, "theta": "fitted", "precision": "single"}

``kernel`` names one of the abstract algorithms of :mod:`repro.apps`
(work ``W(n)`` and traffic ``Q(n; Z)`` from algorithm analysis, with
``Z`` taken from the target platform's largest modelled cache), ``n``
is the problem size, ``power_cap`` optionally overrides the platform's
``delta_pi``, and ``theta`` selects the parameter source (``"truth"``,
the default, or ``"fitted"`` -- theta-hat recovered from a campaign).

Every way a request can be wrong maps to a :class:`ProtocolError`
carrying an HTTP status and a stable machine-readable ``code`` -- the
fault-path tests assert on codes, not prose -- and a valid query
round-trips losslessly: floats survive JSON encoding bit-exactly
(``json`` uses shortest-round-trip ``repr``), which is what lets the
differential suite compare served predictions to the in-process
:meth:`~repro.machine.engine.Engine.run` oracle for *exact* equality.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..apps.algorithms import (
    Algorithm,
    fft,
    matrix_multiply,
    sort_mergesort,
    spmv_csr,
    stencil,
    stream_triad,
)
from ..apps.analysis import fast_memory_capacity
from ..machine.config import PlatformConfig
from ..machine.engine import BatchResult, RunResult
from ..machine.kernel import DRAM, KernelSpec
from ..machine.platforms import PLATFORM_IDS

__all__ = [
    "KERNEL_IDS",
    "THETA_SOURCES",
    "MAX_PROBLEM_SIZE",
    "ProtocolError",
    "PredictQuery",
    "parse_predict_body",
    "build_kernel",
    "encode_prediction",
    "encode_response",
    "encode_error",
]

#: Abstract-algorithm factories a query's ``kernel`` field may name.
_ALGORITHM_FACTORIES: Mapping[str, Callable[[], Algorithm]] = {
    "matmul": matrix_multiply,
    "fft": fft,
    "stencil": stencil,
    "triad": stream_triad,
    "spmv": spmv_csr,
    "mergesort": sort_mergesort,
}

KERNEL_IDS: tuple[str, ...] = tuple(sorted(_ALGORITHM_FACTORIES))

THETA_SOURCES = ("truth", "fitted")

_PRECISIONS = ("single", "double")

#: Upper bound on ``n``: keeps W(n)/Q(n) finite on every algorithm and
#: bounds the simulated duration a single query can demand.
MAX_PROBLEM_SIZE = 1e12

_FIELDS = frozenset(
    {"kernel", "platform", "n", "power_cap", "theta", "precision"}
)


class ProtocolError(Exception):
    """A request the service refuses, as a typed HTTP error.

    ``status`` is the HTTP status code (4xx for client errors, 500 for
    the server's own failures); ``code`` is a stable machine-readable
    identifier tests and clients can switch on.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


@dataclass(frozen=True)
class PredictQuery:
    """One validated predict request."""

    kernel: str
    platform_id: str
    n: float
    power_cap: float | None = None
    theta: str = "truth"
    precision: str = "single"

    def echo(self) -> dict[str, Any]:
        """The request as the response echoes it (defaults filled in)."""
        return {
            "kernel": self.kernel,
            "platform": self.platform_id,
            "n": self.n,
            "power_cap": self.power_cap,
            "theta": self.theta,
            "precision": self.precision,
        }


def _number(obj: dict, name: str, code: str) -> float:
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            400, code, f"{name!r} must be a number, got {value!r}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise ProtocolError(400, code, f"{name!r} must be finite")
    return value


def parse_predict_body(raw: bytes) -> PredictQuery:
    """Parse and validate one ``/predict`` body.

    Raises :class:`ProtocolError` -- ``bad_json`` for bodies that are
    not JSON, ``bad_request`` for shape problems, ``unknown_kernel`` /
    ``unknown_platform`` (404) for names outside the catalogue, and
    field-specific 400 codes for out-of-range values.
    """
    try:
        obj = json.loads(raw)
    except (ValueError, UnicodeDecodeError) as err:
        raise ProtocolError(400, "bad_json", f"body is not JSON: {err}")
    if not isinstance(obj, dict):
        raise ProtocolError(
            400, "bad_request", "body must be a JSON object"
        )
    unknown = sorted(set(obj) - _FIELDS)
    if unknown:
        raise ProtocolError(
            400, "bad_request", f"unknown field(s): {', '.join(unknown)}"
        )
    missing = sorted({"kernel", "platform", "n"} - set(obj))
    if missing:
        raise ProtocolError(
            400, "bad_request", f"missing field(s): {', '.join(missing)}"
        )

    kernel = obj["kernel"]
    if not isinstance(kernel, str) or kernel not in _ALGORITHM_FACTORIES:
        raise ProtocolError(
            404,
            "unknown_kernel",
            f"unknown kernel {kernel!r}; one of: {', '.join(KERNEL_IDS)}",
        )
    platform_id = obj["platform"]
    if not isinstance(platform_id, str) or platform_id not in PLATFORM_IDS:
        raise ProtocolError(
            404,
            "unknown_platform",
            f"unknown platform {platform_id!r}; "
            f"one of: {', '.join(PLATFORM_IDS)}",
        )

    n = _number(obj, "n", "bad_size")
    if not 0.0 < n <= MAX_PROBLEM_SIZE:
        raise ProtocolError(
            400,
            "bad_size",
            f"'n' must be in (0, {MAX_PROBLEM_SIZE:g}], got {n!r}",
        )

    power_cap: float | None = None
    if obj.get("power_cap") is not None:
        power_cap = _number(obj, "power_cap", "bad_power_cap")
        if power_cap <= 0.0:
            raise ProtocolError(
                400, "bad_power_cap", "'power_cap' must be positive watts"
            )

    theta = obj.get("theta", "truth")
    if theta not in THETA_SOURCES:
        raise ProtocolError(
            400,
            "bad_theta",
            f"'theta' must be one of {THETA_SOURCES}, got {theta!r}",
        )
    precision = obj.get("precision", "single")
    if precision not in _PRECISIONS:
        raise ProtocolError(
            400,
            "bad_precision",
            f"'precision' must be one of {_PRECISIONS}, got {precision!r}",
        )
    return PredictQuery(
        kernel=kernel,
        platform_id=platform_id,
        n=n,
        power_cap=power_cap,
        theta=theta,
        precision=precision,
    )


def build_kernel(query: PredictQuery, config: PlatformConfig) -> KernelSpec:
    """The :class:`KernelSpec` a query executes on ``config``.

    Evaluates the abstract algorithm's ``W(n)`` / ``Q(n; Z)`` with
    ``Z`` from the resolved platform (so the same query genuinely has
    different intensities on different machines), then packages the
    counts as an engine kernel.  Raises :class:`ProtocolError`
    (``unsupported_precision``) when the platform models no
    double-precision costs.
    """
    if (
        query.precision == "double"
        and config.truth.tau_flop_double is None
    ):
        raise ProtocolError(
            400,
            "unsupported_precision",
            f"platform {query.platform_id!r} models no double-precision "
            f"costs",
        )
    algorithm = _ALGORITHM_FACTORIES[query.kernel]()
    instance = algorithm.instance(query.n, fast_memory_capacity(config))
    return KernelSpec(
        name=f"{query.kernel}[n={query.n:g}]",
        flops=instance.flops,
        traffic={DRAM: instance.bytes_moved},
        precision=query.precision,
    )


def _prediction(
    time_s: float,
    energy_j: float,
    avg_power_w: float,
    ideal_time_s: float,
    throttled: bool,
    kernel: KernelSpec,
) -> dict[str, Any]:
    """The seven fields of a ``prediction`` object, the one copy both
    encoders build them through.  Intensity is deliberately omitted --
    it can be infinite (cache-resident kernels), and strict JSON has no
    encoding for that."""
    return {
        "time_s": float(time_s),
        "energy_j": float(energy_j),
        "avg_power_w": float(avg_power_w),
        "ideal_time_s": float(ideal_time_s),
        "throttled": bool(throttled),
        "flops": float(kernel.flops),
        "dram_bytes": float(kernel.dram_bytes),
    }


def encode_prediction(result: RunResult) -> dict[str, Any]:
    """One unbatched run's ground truth as a ``prediction`` object.

    This is the oracle's encoder: the differential tests compare every
    served prediction with ``encode_prediction(engine.run(kernel))``,
    and both encoders share :func:`_prediction`, so "bit-identical
    responses" reduces to dict equality.
    """
    return _prediction(
        result.wall_time,
        result.true_energy,
        result.true_avg_power,
        result.ideal_time,
        result.throttled,
        result.kernel,
    )


def encode_response(
    query: PredictQuery, batch: BatchResult, row: int, batch_width: int
) -> dict[str, Any]:
    """The full 200 body: echoed request, prediction, batching info.

    The prediction is read straight from row ``row`` of the batch's
    aligned arrays; no :class:`RunResult` or power trace is built.
    ``batch_width`` (how many requests shared the coalesced engine
    dispatch this one rode in) sits *outside* ``prediction`` so exact
    response comparison is unaffected by traffic shape.
    """
    return {
        "request": query.echo(),
        "prediction": _prediction(
            batch.wall_times.item(row),
            batch.energies.item(row),
            batch.avg_powers.item(row),
            batch.ideal_times.item(row),
            batch.throttled.item(row),
            batch.kernels[row],
        ),
        "batch_width": int(batch_width),
    }


def encode_error(err: ProtocolError) -> dict[str, Any]:
    """The error body: ``{"error": {"code": ..., "message": ...}}``."""
    return {"error": {"code": err.code, "message": err.message}}

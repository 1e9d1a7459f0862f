"""Wire-protocol unit tests: parsing, validation codes, encoding.

The fault-path contract is *typed*: every rejection carries a stable
machine-readable ``code`` (asserted here, not the prose), and valid
queries round-trip bit-exactly through JSON -- the property the
differential suite's exact-equality comparisons stand on.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.machine.kernel import DRAM
from repro.machine.platforms import platform
from repro.serve.protocol import (
    KERNEL_IDS,
    MAX_PROBLEM_SIZE,
    PredictQuery,
    ProtocolError,
    build_kernel,
    encode_error,
    encode_prediction,
    encode_response,
    parse_predict_body,
)


def _parse(obj) -> PredictQuery:
    return parse_predict_body(json.dumps(obj).encode("utf-8"))


def _code(obj) -> tuple[int, str]:
    with pytest.raises(ProtocolError) as err:
        _parse(obj)
    return err.value.status, err.value.code


GOOD = {"kernel": "matmul", "platform": "gtx-titan", "n": 1024}


class TestParse:
    def test_minimal_query_fills_defaults(self):
        query = _parse(GOOD)
        assert query == PredictQuery(
            kernel="matmul", platform_id="gtx-titan", n=1024.0
        )
        assert query.theta == "truth"
        assert query.precision == "single"
        assert query.power_cap is None

    def test_full_query(self):
        query = _parse(
            {**GOOD, "power_cap": 80.5, "theta": "fitted",
             "precision": "double"}
        )
        assert query.power_cap == 80.5
        assert query.theta == "fitted"
        assert query.precision == "double"

    def test_every_catalogue_kernel_parses(self):
        for kernel in KERNEL_IDS:
            assert _parse({**GOOD, "kernel": kernel}).kernel == kernel

    def test_echo_round_trips_through_json(self):
        query = _parse({**GOOD, "n": 0.1 + 0.2, "power_cap": 1e-3})
        echoed = json.loads(json.dumps(query.echo()))
        assert echoed["n"] == query.n  # bit-exact, not approximate
        assert echoed["power_cap"] == query.power_cap


class TestRejections:
    def test_not_json(self):
        with pytest.raises(ProtocolError) as err:
            parse_predict_body(b"{nope")
        assert (err.value.status, err.value.code) == (400, "bad_json")

    def test_non_object_body(self):
        assert _code([1, 2, 3]) == (400, "bad_request")

    def test_missing_fields(self):
        assert _code({"kernel": "matmul"}) == (400, "bad_request")

    def test_unknown_field(self):
        assert _code({**GOOD, "frequency": 2.0}) == (400, "bad_request")

    def test_unknown_kernel_is_404(self):
        assert _code({**GOOD, "kernel": "dgemm"}) == (404, "unknown_kernel")

    def test_unknown_platform_is_404(self):
        assert _code({**GOOD, "platform": "cray-1"}) == (
            404,
            "unknown_platform",
        )

    @pytest.mark.parametrize(
        "n", [0, -5, "big", True, math.inf, MAX_PROBLEM_SIZE * 10]
    )
    def test_bad_sizes(self, n):
        assert _code({**GOOD, "n": n}) == (400, "bad_size")

    @pytest.mark.parametrize("cap", [0.0, -1.0, "80W", math.nan])
    def test_bad_power_caps(self, cap):
        assert _code({**GOOD, "power_cap": cap}) == (400, "bad_power_cap")

    def test_null_power_cap_means_uncapped(self):
        assert _parse({**GOOD, "power_cap": None}).power_cap is None

    def test_bad_theta(self):
        assert _code({**GOOD, "theta": "guessed"}) == (400, "bad_theta")

    def test_bad_precision(self):
        assert _code({**GOOD, "precision": "half"}) == (400, "bad_precision")


class TestBuildKernel:
    def test_matmul_counts_are_algorithmic(self):
        config = platform("gtx-titan")
        kernel = build_kernel(_parse({**GOOD, "n": 512}), config)
        assert kernel.flops == pytest.approx(2 * 512**3, rel=1e-12)
        assert kernel.traffic[DRAM] > 0
        assert kernel.precision == "single"

    def test_traffic_depends_on_platform_cache(self):
        """The same query has different Q(n; Z) on machines with
        different fast-memory sizes -- the cache-aware path works."""
        big = build_kernel(_parse({**GOOD, "n": 4096}), platform("gtx-titan"))
        small = build_kernel(
            _parse({**GOOD, "n": 4096}), platform("arndale-gpu")
        )
        assert big.traffic[DRAM] != small.traffic[DRAM]

    def test_double_on_gpu_without_double_costs_is_typed(self):
        config = platform("gtx-titan")
        if config.truth.tau_flop_double is not None:
            pytest.skip("platform models double precision")
        with pytest.raises(ProtocolError) as err:
            build_kernel(_parse({**GOOD, "precision": "double"}), config)
        assert err.value.code == "unsupported_precision"


class TestEncoding:
    def test_prediction_fields(self):
        from repro.machine.engine import Engine

        config = platform("gtx-titan")
        engine = Engine(config, rng=None)
        kernel = build_kernel(_parse(GOOD), config)
        pred = encode_prediction(engine.run(kernel))
        assert set(pred) == {
            "time_s", "energy_j", "avg_power_w", "ideal_time_s",
            "throttled", "flops", "dram_bytes",
        }
        assert pred["time_s"] > 0
        assert pred["energy_j"] > 0
        # JSON-safe: every value must survive strict serialisation.
        assert json.loads(json.dumps(pred)) == pred

    def test_response_shape(self):
        """Each row of a batch, throttled and unthrottled mixed, encodes
        to the unbatched oracle's prediction."""
        from repro.serve.theta import ThetaResolver

        queries = [
            _parse({**GOOD, "kernel": kernel, "n": n, "power_cap": 80.0})
            for kernel, n in [
                ("matmul", 1024), ("triad", 1e6), ("fft", 65536),
                ("stencil", 1e6), ("matmul", 256), ("spmv", 1e5),
            ]
        ]
        engine = ThetaResolver().engine(queries[0])
        kernels = [build_kernel(query, engine.config) for query in queries]
        batch = engine.run_batch(kernels)
        assert 0 < batch.n_throttled < len(batch)
        for row, (query, kernel) in enumerate(zip(queries, kernels)):
            body = encode_response(query, batch, row, batch_width=7)
            assert body["request"] == query.echo()
            assert body["batch_width"] == 7
            assert body["prediction"] == encode_prediction(engine.run(kernel))

    def test_error_shape(self):
        body = encode_error(ProtocolError(400, "bad_size", "too big"))
        assert body == {"error": {"code": "bad_size", "message": "too big"}}

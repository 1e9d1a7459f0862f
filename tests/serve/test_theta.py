"""The resolver's engine memo is bounded.

Every query may carry its own ``power_cap``, and the loadgen's default
mix gives a quarter of its queries a random one, so a memo holding one
engine per cap ever seen grows with the traffic.  The resolver keeps
at most ``MAX_ENGINES`` and evicts the least recently used; an evicted
engine is simply rebuilt, with the same predictions.
"""

from __future__ import annotations

from dataclasses import replace

from repro.machine.engine import Engine
from repro.machine.platforms import platform
from repro.serve.protocol import PredictQuery, build_kernel, encode_prediction
from repro.serve.theta import MAX_ENGINES, ThetaResolver

from .conftest import drive, post_predict

FIRST = {"kernel": "matmul", "platform": "gtx-titan", "n": 1024, "power_cap": 80.0}


def _capped(cap: float) -> PredictQuery:
    return PredictQuery(
        kernel="triad", platform_id="gtx-titan", n=1e6, power_cap=cap
    )


def test_engine_memo_stays_bounded_and_evicted_queries_match_the_oracle():
    async def scenario(server):
        resolver = server.resolver
        resolver.engine(_capped(FIRST["power_cap"]))
        sizes = []
        for i in range(3 * MAX_ENGINES):
            resolver.engine(_capped(100.0 + i))
            sizes.append(resolver.stats()["engines"])
        # The first cap's engine went long ago; serving it rebuilds one.
        answer = await post_predict(server.port, FIRST)
        return sizes, answer, resolver.stats()

    sizes, (status, body), stats = drive(scenario)
    assert max(sizes) == MAX_ENGINES
    assert stats["engines"] <= MAX_ENGINES
    assert status == 200
    config = platform("gtx-titan")
    oracle = Engine(
        replace(config, truth=replace(config.truth, delta_pi=80.0)), rng=None
    )
    query = PredictQuery(
        kernel="matmul", platform_id="gtx-titan", n=1024.0, power_cap=80.0
    )
    kernel = build_kernel(query, oracle.config)
    assert body["prediction"] == encode_prediction(oracle.run(kernel))
    assert body["prediction"]["throttled"]


def test_recently_used_engines_survive_eviction():
    """A hit refreshes an engine: the one in use is never the one
    evicted."""
    resolver = ThetaResolver()
    hot = resolver.engine(_capped(1.0))
    for i in range(2 * MAX_ENGINES):
        resolver.engine(_capped(100.0 + i))
        assert resolver.engine(_capped(1.0)) is hot

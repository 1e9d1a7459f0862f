"""Fitted-theta serving through the campaign store, asserted via
``/stats`` and the ``archline cache`` CLI.

A ``"theta": "fitted"`` query makes the resolver run the Section V-A
campaign+fit pipeline on first touch.  With a store attached, a cold
server *publishes* the campaign and fit entries (misses + puts) and a
warm restart *replays* them (hits, no puts) -- bit-identically, which
the cold-vs-warm prediction comparison asserts.  The same directory
then answers to ``archline cache stats`` / ``verify``, proving the
serve path and the cache CLI share one store format.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from repro.cli import main as archline_main
from repro.experiments.common import CampaignSettings
from repro.serve import PredictServer, ThetaResolver
from repro.serve.protocol import PredictQuery
from repro.store.store import CampaignStore

from .conftest import post_predict

#: Small platform + shrunken campaign: fitted resolution in ~a second.
QUERY = {
    "kernel": "triad",
    "platform": "arndale-gpu",
    "n": 1e6,
    "theta": "fitted",
}


def _quick_settings() -> CampaignSettings:
    return CampaignSettings(seed=2014).scaled_down()


def _serve_fitted(store: CampaignStore) -> tuple[dict, dict]:
    """One server lifetime: two identical fitted queries; returns the
    (first response body, /stats theta payload)."""

    async def main():
        resolver = ThetaResolver(store=store, settings=_quick_settings())
        async with PredictServer(
            port=0, resolver=resolver, linger_us=500
        ) as server:
            status1, body1 = await post_predict(server.port, QUERY)
            status2, body2 = await post_predict(server.port, QUERY)
            assert status1 == 200, body1
            assert status2 == 200, body2
            assert body1["prediction"] == body2["prediction"]
            return body1, server.stats()["theta"]

    return asyncio.run(main())


def test_cold_then_warm_store_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")

    # Cold: the campaign and fit both miss and are published.
    cold_store = CampaignStore(cache_dir)
    cold_body, cold_theta = _serve_fitted(cold_store)
    assert cold_theta["fitted_resolutions"] == 1
    assert cold_theta["fitted_platforms"] == ["arndale-gpu"]
    # One campaign entry + one fit entry.
    assert cold_theta["store"] == {
        "hits": 0, "misses": 2, "stale": 0, "puts": 2,
    }
    # The second request never touched resolution: engine memo hit.
    assert cold_theta["memo_hits"] >= 1

    # Warm: a new server over the same directory replays both entries.
    warm_store = CampaignStore(cache_dir)
    warm_body, warm_theta = _serve_fitted(warm_store)
    assert warm_theta["fitted_resolutions"] == 1
    assert warm_theta["store"] == {
        "hits": 2, "misses": 0, "stale": 0, "puts": 0,
    }

    # Replay is bit-identical: the fitted engine a warm store yields
    # serves the very same prediction.
    assert warm_body["prediction"] == cold_body["prediction"]

    # The serve-populated store answers to the cache CLI.
    assert archline_main(["cache", "stats", "--dir", cache_dir]) == 0
    stats_out = capsys.readouterr().out
    assert "campaign" in stats_out
    assert "fit" in stats_out

    assert archline_main(["cache", "verify", "--dir", cache_dir]) == 0
    verify_out = capsys.readouterr().out.lower()
    assert "all entries verify" in verify_out


def test_fleet_warmed_store_serves_fitted_theta(tmp_path, capsys, monkeypatch):
    """``archline fleet --theta fitted --quick-fit --cache D`` publishes
    exactly the campaign and fit entries that serve's fitted resolution
    at scaled-down settings looks up: both hit, nothing is recomputed."""
    monkeypatch.delenv("ARCHLINE_CACHE", raising=False)
    cache_dir = str(tmp_path / "store")
    workload = Path(__file__).parents[2] / "examples" / "fleet_workload.json"
    code = archline_main(
        [
            "fleet",
            "--workload", str(workload),
            "--theta", "fitted",
            "--quick-fit",
            "--platforms", QUERY["platform"],
            "--cache", cache_dir,
        ]
    )
    assert code == 0
    capsys.readouterr()

    resolver = ThetaResolver(
        store=CampaignStore(cache_dir),
        settings=CampaignSettings().scaled_down(),
    )
    resolver.engine(
        PredictQuery(
            kernel=QUERY["kernel"],
            platform_id=QUERY["platform"],
            n=QUERY["n"],
            theta="fitted",
        )
    )
    assert resolver.stats()["store"] == {
        "hits": 2, "misses": 0, "stale": 0, "puts": 0,
    }


def test_truth_queries_never_touch_the_store(tmp_path):
    """Ground-truth serving must not pay (or pollute) the cache."""
    store = CampaignStore(str(tmp_path / "store"))

    async def main():
        resolver = ThetaResolver(store=store, settings=_quick_settings())
        async with PredictServer(
            port=0, resolver=resolver, linger_us=500
        ) as server:
            status, _ = await post_predict(
                server.port, {**QUERY, "theta": "truth"}
            )
            assert status == 200
            return server.stats()["theta"]

    theta = asyncio.run(main())
    assert theta["fitted_resolutions"] == 0
    assert theta["store"] == {"hits": 0, "misses": 0, "stale": 0, "puts": 0}


def test_refresh_recomputes_and_republishes(tmp_path):
    """``--refresh`` semantics at the resolver level: skip lookups,
    recompute, republish over the existing entries."""
    cache_dir = str(tmp_path / "store")
    _serve_fitted(CampaignStore(cache_dir))  # populate

    async def main():
        resolver = ThetaResolver(
            store=CampaignStore(cache_dir),
            settings=_quick_settings(),
            refresh=True,
        )
        async with PredictServer(
            port=0, resolver=resolver, linger_us=500
        ) as server:
            status, _ = await post_predict(server.port, QUERY)
            assert status == 200
            return server.stats()["theta"]

    theta = asyncio.run(main())
    assert theta["store"]["hits"] == 0
    assert theta["store"]["puts"] == 2

"""The batching window over real sockets: an assembly closes once
every open connection has a request in it.

The server answers each keep-alive connection in strict
request/response alternation, so once the assembly holds one request
per open connection, nothing else can join it.  A closed loop then
never waits out ``linger_us``: with a 2 s window, two clients sending
ten requests each finish in milliseconds, where waiting out every
window would take about 20 s.
"""

from __future__ import annotations

import asyncio

from repro.serve import PredictServer
from repro.serve.loadgen import fetch_stats, run_closed_loop

from .conftest import oracle_prediction


def test_closed_loop_does_not_wait_out_the_window():
    async def main():
        async with PredictServer(port=0, linger_us=2_000_000) as server:
            report = await asyncio.wait_for(
                run_closed_loop(
                    "127.0.0.1",
                    server.port,
                    n_clients=2,
                    requests_per_client=10,
                    seed=2014,
                ),
                timeout=5.0,
            )
            stats = await fetch_stats("127.0.0.1", server.port)
            for _ in range(100):
                if server.batcher.open_connections == 0:
                    break
                await asyncio.sleep(0.01)
            oracle = [
                oracle_prediction(server, query)
                for query, _ in report.exchanges
            ]
            return report, stats, oracle, server.stats()

    report, stats, oracle, final = asyncio.run(main())
    assert report.statuses == {200: 20}
    for (query, body), expected in zip(report.exchanges, oracle):
        assert body["prediction"] == expected, query
    batch = stats["batch"]
    assert batch["batched_requests"] == 20
    assert batch["closed"] == {
        "full": 0, "all_in": batch["batches"], "deadline": 0,
    }
    # The /stats request's own connection was open while it was served;
    # once every client has gone, none is.
    assert stats["server"]["open_connections"] >= 1
    assert final["server"]["open_connections"] == 0

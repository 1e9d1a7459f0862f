"""Fault-path tests: every client error is a typed 4xx, and none of
them hurts anyone else.

The contract under test: malformed JSON, out-of-catalogue names,
oversized bodies, wrong methods and mid-request disconnects each map
to a stable machine-readable error code (or a counted disconnect) --
and the server keeps answering afterwards, including for requests
sharing the very batch window the fault landed in.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve.loadgen import HttpClient

from .conftest import drive, oracle_prediction, post_predict

GOOD = {"kernel": "triad", "platform": "gtx-titan", "n": 1e6}


def _error_code(body: dict) -> str:
    return body["error"]["code"]


async def _raw_exchange(port: int, request: bytes) -> tuple[int, dict]:
    """Send hand-framed request bytes over a bare socket and read the
    one response: ``(status, parsed JSON body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        line = await reader.readline()
        status = int(line.split()[1])
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n"):
                break
            name, _, value = header.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, json.loads(await reader.readexactly(length))
    finally:
        writer.close()


class TestTypedRejections:
    def test_malformed_json_is_400(self):
        # A raw non-JSON body, hand-framed over a bare socket.
        async def scenario(server):
            payload = b"{not json"
            status, body = await _raw_exchange(
                server.port,
                b"POST /predict HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload),
            )
            return status, body, server.stats()

        status, body, stats = drive(scenario)
        assert status == 400
        assert _error_code(body) == "bad_json"
        assert stats["errors"] == {"bad_json": 1}

    def test_oversized_heads_are_400_and_serving_goes_on(self):
        """A request line over the stream's 64 KiB line limit, and a
        head of short lines far over the head bound, each get a typed
        400 instead of a dropped connection or a 200."""
        long_line = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        many_lines = (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-Filler-%d: value\r\n" % i for i in range(20_000))
            + b"\r\n"
        )

        async def scenario(server):
            refused = [
                await _raw_exchange(server.port, head)
                for head in (long_line, many_lines)
            ]
            health = await _raw_exchange(
                server.port, b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            return refused, health, server.stats()

        refused, health, stats = drive(scenario)
        assert [status for status, _ in refused] == [400, 400]
        assert [_error_code(body) for _, body in refused] == [
            "bad_http", "bad_http",
        ]
        assert health == (200, {"ok": True})
        assert stats["errors"] == {"bad_http": 2}
        assert stats["server"]["disconnects"] == 0

    def test_refused_requests_count_as_requests(self):
        """Framing-level refusals (400 heads, 413 bodies) are requests
        too: every response answers one counted request."""
        long_line = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        over_limit = b"POST /predict HTTP/1.1\r\nContent-Length: 2048\r\n\r\n"

        async def scenario(server):
            for head in (long_line, long_line, over_limit):
                await _raw_exchange(server.port, head)
            return await _raw_exchange(
                server.port, b"GET /stats HTTP/1.1\r\n\r\n"
            )

        status, stats = drive(scenario, max_body_bytes=1024)
        server = stats["server"]
        assert status == 200
        assert server["responses"] == {"400": 2, "413": 1}
        # /stats counts its own request before it is answered.
        assert server["requests"] == sum(server["responses"].values()) + 1

    def test_unknown_kernel_is_404(self):
        async def scenario(server):
            return await post_predict(
                server.port, {**GOOD, "kernel": "linpack"}
            )

        status, body = drive(scenario)
        assert status == 404
        assert _error_code(body) == "unknown_kernel"

    def test_unknown_platform_is_404(self):
        async def scenario(server):
            return await post_predict(
                server.port, {**GOOD, "platform": "enigma"}
            )

        status, body = drive(scenario)
        assert status == 404
        assert _error_code(body) == "unknown_platform"

    def test_oversized_body_is_413_and_closes(self):
        async def scenario(server):
            client = HttpClient("127.0.0.1", server.port)
            try:
                status, body = await client.request(
                    "POST", "/predict", {**GOOD, "kernel": "x" * 3000}
                )
                # The connection must be gone: the server refused to
                # read the oversized body, so the stream is dead.
                try:
                    await client.request("GET", "/healthz")
                    reusable = True
                except (ConnectionError, asyncio.IncompleteReadError):
                    reusable = False
                return status, body, reusable
            finally:
                await client.close()

        status, body, reusable = drive(scenario, max_body_bytes=1024)
        assert status == 413
        assert _error_code(body) == "body_too_large"
        assert not reusable

    def test_wrong_method_is_405(self):
        async def scenario(server):
            client = HttpClient("127.0.0.1", server.port)
            try:
                return await client.request("GET", "/predict", close=True)
            finally:
                await client.close()

        status, body = drive(scenario)
        assert status == 405
        assert _error_code(body) == "bad_method"

    def test_unknown_route_is_404(self):
        async def scenario(server):
            client = HttpClient("127.0.0.1", server.port)
            try:
                return await client.request("GET", "/metrics", close=True)
            finally:
                await client.close()

        status, body = drive(scenario)
        assert status == 404
        assert _error_code(body) == "not_found"

    def test_query_too_large_is_typed(self):
        """A valid query whose simulated duration exceeds the service
        bound is refused up front, not simulated."""

        async def scenario(server):
            return await post_predict(
                server.port, {**GOOD, "kernel": "matmul", "n": 1e6}
            )

        status, body = drive(scenario, max_simulated_seconds=0.5)
        assert status == 400
        assert _error_code(body) == "query_too_large"

    def test_unsupported_precision_is_typed(self):
        async def scenario(server):
            return await post_predict(
                server.port,
                {**GOOD, "platform": "nuc-gpu", "precision": "double"},
            )

        status, body = drive(scenario)
        # nuc-gpu models no double-precision cost in Table I.
        assert status == 400
        assert _error_code(body) == "unsupported_precision"


class TestFaultIsolation:
    def test_errors_do_not_kill_the_connection(self):
        """Keep-alive survives request-level (non-framing) errors: a
        404 kernel then a good query on the same connection."""

        async def scenario(server):
            client = HttpClient("127.0.0.1", server.port)
            try:
                bad = await client.request(
                    "POST", "/predict", {**GOOD, "kernel": "nope"}
                )
                good = await client.request("POST", "/predict", GOOD)
            finally:
                await client.close()
            return bad, good

        (bad_status, _), (good_status, good_body) = drive(scenario)
        assert bad_status == 404
        assert good_status == 200
        assert good_body["prediction"]["time_s"] > 0

    def test_query_too_large_rides_its_assembly(self):
        """Two good queries and one over the bound share one assembly on
        one engine: the big one gets the typed 400 with the bound's
        message, the other two the oracle's predictions, and the group
        still runs as one engine batch that counts all three."""
        queries = [
            {**GOOD, "kernel": "matmul", "n": 256},
            {**GOOD, "kernel": "matmul", "n": 1e6},
            {**GOOD, "kernel": "triad", "n": 1e6},
        ]

        async def scenario(server):
            clients = [HttpClient("127.0.0.1", server.port) for _ in queries]
            try:
                for client in clients:
                    await client.connect()
                # Every connection registered, so the assembly waits
                # (up to the 2 s window) until all three are in.
                while server.batcher.open_connections < len(clients):
                    await asyncio.sleep(0.001)
                before = server.stats()["batch"]
                answers = await asyncio.gather(*(
                    client.request("POST", "/predict", query)
                    for client, query in zip(clients, queries)
                ))
                after = server.stats()["batch"]
            finally:
                for client in clients:
                    await client.close()
            oracle = [oracle_prediction(server, query) for query in queries]
            return before, answers, after, oracle

        before, answers, after, oracle = drive(
            scenario, max_simulated_seconds=0.5, linger_us=2_000_000
        )
        (ok0, body0), (status, body), (ok2, body2) = answers
        assert status == 400
        ideal = oracle[1]["ideal_time_s"]
        assert body == {
            "error": {
                "code": "query_too_large",
                "message": f"kernel needs {ideal:.3g} simulated seconds, "
                f"over the 0.5 s service limit",
            }
        }
        assert (ok0, ok2) == (200, 200)
        assert body0["prediction"] == oracle[0]
        assert body2["prediction"] == oracle[2]
        assert body0["batch_width"] == body2["batch_width"] == 3
        assert after["engine_batches"] == before["engine_batches"] + 1
        assert after["batches"] == before["batches"] + 1

    def test_mid_request_disconnect_spares_the_batch(self):
        """A client that vanishes after half a body is a counted
        disconnect; a concurrent good request in the same batch window
        still gets its 200."""

        async def scenario(server):
            async def vanisher():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                payload = json.dumps(GOOD).encode()
                writer.write(
                    b"POST /predict HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n" % (len(payload) * 2)
                )
                writer.write(payload)  # half the promised body
                await writer.drain()
                await asyncio.sleep(0.01)
                writer.close()  # gone, mid-request

            async def survivor():
                return await post_predict(server.port, GOOD)

            _, result = await asyncio.gather(vanisher(), survivor())
            # The disconnect is only counted once the reader hits EOF;
            # give the handler a beat to observe it.
            for _ in range(50):
                if server.disconnects:
                    break
                await asyncio.sleep(0.01)
            return result, server.stats()

        (status, body), stats = drive(scenario, linger_us=20_000)
        assert status == 200
        assert body["prediction"]["energy_j"] > 0
        assert stats["server"]["disconnects"] == 1

    def test_server_keeps_serving_after_fault_storm(self):
        """A burst of every fault class, then a clean request: the
        service answers it and the error counters add up."""

        async def scenario(server):
            faults = [
                {**GOOD, "kernel": "nope"},
                {**GOOD, "platform": "nope"},
                {**GOOD, "n": -1},
                {**GOOD, "power_cap": -5},
                {**GOOD, "theta": "vibes"},
            ]
            for query in faults:
                status, _ = await post_predict(server.port, query)
                assert status in (400, 404)
            ok = await post_predict(server.port, GOOD)
            return ok, server.stats()

        (status, body), stats = drive(scenario)
        assert status == 200
        assert body["batch_width"] >= 1
        assert sum(stats["errors"].values()) == 5
        assert set(stats["errors"]) == {
            "unknown_kernel", "unknown_platform", "bad_size",
            "bad_power_cap", "bad_theta",
        }

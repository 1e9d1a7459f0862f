"""HTTP framing over a live server: however the bytes arrive, each
request is answered once, in order, with the oracle's prediction.

A connection takes a request from its buffer once the head's blank
line and then the whole body have arrived, and answers in strict
request/response alternation, so pipelined requests queue in the
buffer.  The buffer is bounded: the connection stops reading while it
holds more than one head plus one maximum body.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve import server as server_module

from .conftest import drive, oracle_prediction

QUERIES = [
    {"kernel": "triad", "platform": "gtx-titan", "n": 1e6},
    {"kernel": "matmul", "platform": "nuc-gpu", "n": 256, "power_cap": 5.0},
    {"kernel": "fft", "platform": "arndale-gpu", "n": 65536},
]


def _request(query: dict, pad: int = 0) -> bytes:
    """One framed ``POST /predict``; ``pad`` spaces of trailing JSON
    whitespace make the body as long as wanted."""
    body = json.dumps(query).encode("utf-8") + b" " * pad
    return (
        b"POST /predict HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, dict]:
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


def test_request_written_one_byte_at_a_time():
    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            for byte in _request(QUERIES[1]):
                writer.write(bytes([byte]))
                await writer.drain()
                await asyncio.sleep(0)
            answer = await _read_response(reader)
        finally:
            writer.close()
        return answer, oracle_prediction(server, QUERIES[1])

    (status, body), expected = drive(scenario)
    assert status == 200
    assert body["prediction"] == expected


def test_two_requests_in_one_write_are_answered_in_order():
    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            writer.write(_request(QUERIES[0]) + _request(QUERIES[2]))
            answers = [await _read_response(reader) for _ in range(2)]
        finally:
            writer.close()
        return answers, [oracle_prediction(server, q) for q in QUERIES]

    answers, oracle = drive(scenario)
    assert [status for status, _ in answers] == [200, 200]
    assert [body["request"]["kernel"] for _, body in answers] == ["triad", "fft"]
    assert answers[0][1]["prediction"] == oracle[0]
    assert answers[1][1]["prediction"] == oracle[2]


def test_pipelined_megabyte_is_answered_with_a_bounded_buffer(monkeypatch):
    """About 1 MB of requests written before any response is read:
    every one is answered, in order, and the connection only reads
    while its buffer holds at most one head plus one maximum body.

    A second, idle connection keeps each request waiting out its
    batching window, so the bytes behind it pile up meanwhile."""
    max_body = 16 * 1024
    limit = server_module._MAX_HEAD_BYTES + max_body
    seen: list[int] = []  # buffer bytes each time the socket was read.
    received = server_module._Connection.data_received

    def data_received(self, data):
        seen.append(len(self.buffer))
        received(self, data)

    monkeypatch.setattr(server_module._Connection, "data_received", data_received)
    queries = [QUERIES[i % len(QUERIES)] for i in range(64)]
    payload = b"".join(_request(query, pad=max_body - 200) for query in queries)
    assert len(payload) > 1_000_000

    async def scenario(server):
        _, idle = await asyncio.open_connection("127.0.0.1", server.port)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            writer.write(payload)
            await asyncio.sleep(0.05)  # the server fills its buffer first
            answers = [await _read_response(reader) for _ in queries]
        finally:
            writer.close()
            idle.close()
        return answers, [oracle_prediction(server, q) for q in QUERIES]

    answers, oracle = drive(scenario, max_body_bytes=max_body, linger_us=500)
    assert [status for status, _ in answers] == [200] * len(queries)
    for i, (_, body) in enumerate(answers):
        assert body["prediction"] == oracle[i % len(QUERIES)]
    # Requests queued in the buffer behind the one in flight, yet the
    # socket was only read while the buffer was within the limit.
    assert 0 < max(seen) <= limit

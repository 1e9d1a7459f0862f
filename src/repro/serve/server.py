"""Hand-rolled HTTP/1.1 predict server on ``asyncio.start_server``.

Stdlib only, by design: the service is one event loop, one listening
socket, one dispatcher coroutine (:class:`~repro.serve.batcher.Batcher`)
and N connection handlers.  Keep-alive is supported -- closed-loop
load generators reuse one connection per client -- and the implemented
protocol subset is deliberately small: request line, headers,
``Content-Length`` bodies (no chunked encoding, no pipelining
guarantees beyond strict request/response alternation per connection).
Each handler registers its connection with the batcher while it is
open.  Alternation means a connection has at most one request in the
batcher, so an assembly holding a request from every open connection
is complete: the batcher closes it then, and ``linger_us`` is only the
longest it waits.

Routes
------
``POST /predict``
    One JSON query (:mod:`repro.serve.protocol`); the response's
    ``prediction`` is bit-identical to what an unbatched
    ``Engine.run`` would produce for the same query.
``GET /stats``
    Live counters: connections (total and open)/requests/responses,
    batching widths and why each assembly closed, theta-hat resolution
    and store hit/miss counters, error counts by code.
``GET /healthz``
    Liveness probe (``{"ok": true}``).

Fault containment: every client error is a typed 4xx
(:class:`~repro.serve.protocol.ProtocolError`), an unexpected handler
failure is a typed 500 carrying the exception class, and a client that
disconnects mid-request is counted and forgotten -- the batch its
request rode in completes for everyone else.  None of this goes
through a silent ``except``: ARCH003 stays clean.

Telemetry: with a real recorder attached the request path records
``request`` (parse + resolve + kernel build), ``batch_assemble`` /
``engine_batch`` (inside the batcher and engine) and ``respond``
(response encoding) spans.  Spans are never held across an ``await``
-- recorder nesting is strictly LIFO, interleaved coroutines would
corrupt it -- so span durations measure CPU sections, and queueing
time is the gap between a request's ``request`` and ``respond`` spans.
``archline serve --trace`` exports the collected spans with
:func:`repro.telemetry.jsonl.write_recorder_trace` in the campaign
JSONL schema (docs/TELEMETRY.md) under a single pseudo-shard named
``"serve"``, so the existing validator, reader and flame summary all
work on service traces unchanged.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any

from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .batcher import Batcher
from .protocol import (
    ProtocolError,
    build_kernel,
    encode_error,
    encode_response,
    parse_predict_body,
)
from .theta import ThetaResolver

__all__ = ["PredictServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Ceiling on one request's *simulated* duration, seconds.  Bounds the
#: work (governor segments, trace length) any single query can demand
#: of the service; larger problems are a typed 400, not a stall.
MAX_SIMULATED_SECONDS = 3600.0

#: Bound on a request's whole head, the request line and every header
#: line together; a longer head is refused as ``bad_http``.
_MAX_HEAD_BYTES = 8192


@dataclass(frozen=True)
class _HttpRequest:
    method: str
    target: str
    body: bytes
    close: bool  #: client sent ``Connection: close``.


async def _read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> _HttpRequest | None:
    """Parse one HTTP/1.1 request; ``None`` on clean EOF.

    Raises :class:`ProtocolError` for malformed framing, oversized
    heads and oversized bodies, and lets
    ``IncompleteReadError``/``ConnectionError`` propagate for
    mid-request disconnects (the connection handler counts those).
    """
    request_line = await _read_head_line(reader, _MAX_HEAD_BYTES)
    if not request_line:
        return None
    budget = _MAX_HEAD_BYTES - len(request_line)
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(
            400, "bad_http", f"malformed request line {request_line!r}"
        )
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await _read_head_line(reader, budget)
        budget -= len(line)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ProtocolError(400, "bad_http", "malformed header block")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(
                400, "bad_http", f"malformed header line {line!r}"
            )
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(
            400, "bad_http", f"bad Content-Length {length_text!r}"
        )
    if length < 0:
        raise ProtocolError(400, "bad_http", "negative Content-Length")
    if length > max_body_bytes:
        # Refuse without reading: the handler answers 413 and closes
        # the connection rather than swallowing an arbitrary body.
        raise ProtocolError(
            413,
            "body_too_large",
            f"body of {length} bytes exceeds the {max_body_bytes} byte "
            f"limit",
        )
    body = await reader.readexactly(length) if length else b""
    close = headers.get("connection", "").lower() == "close"
    return _HttpRequest(method=method, target=target, body=body, close=close)


async def _read_head_line(reader: asyncio.StreamReader, budget: int) -> bytes:
    """One line of a request head, refused when longer than ``budget``,
    the bytes the head has left."""
    try:
        line = await reader.readline()
    except ValueError:
        # Over the stream's own 64 KiB line limit, so over any budget;
        # the stream has dropped the line.
        line = None
    if line is None or len(line) > budget:
        raise ProtocolError(
            400, "bad_http", f"request head over {_MAX_HEAD_BYTES} bytes"
        )
    return line


def _encode_http(status: int, body: dict[str, Any], *, close: bool) -> bytes:
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
    )
    if close:
        head += "Connection: close\r\n"
    return head.encode("latin-1") + b"\r\n" + payload


class PredictServer:
    """The asyncio predict service.

    Construct, then ``await start()`` (binds the socket and spawns the
    batcher); ``port`` reports the actual bound port (pass ``port=0``
    in tests for an ephemeral one).  ``await stop()`` closes the
    listener, lets in-flight requests drain briefly, flushes the
    batcher and cancels idle keep-alive connections.  Also usable as
    an async context manager.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 32,
        linger_us: int = 1000,
        max_body_bytes: int = 64 * 1024,
        max_simulated_seconds: float = MAX_SIMULATED_SECONDS,
        resolver: ThetaResolver | None = None,
        recorder: TraceRecorder | None = NULL_RECORDER,
        drain_seconds: float = 1.0,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.max_body_bytes = max_body_bytes
        self.max_simulated_seconds = max_simulated_seconds
        self.drain_seconds = drain_seconds
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.resolver = resolver or ThetaResolver(recorder=self.recorder)
        self.batcher = Batcher(
            max_batch=max_batch, linger_us=linger_us, recorder=self.recorder
        )
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started_at = 0.0
        # Counters (single-threaded event loop: plain ints are safe).
        self.connections = 0
        self.requests = 0
        self.disconnects = 0
        self.responses: dict[str, int] = {}
        self.errors: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        await self.batcher.start()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.host, port=self._requested_port
        )
        self._started_at = time.monotonic()

    @property
    def port(self) -> int:
        """The actually bound port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, flush, cancel."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._conn_tasks:
            # In-flight requests get a short drain window; idle
            # keep-alive connections are then cancelled outright.
            done, pending = await asyncio.wait(
                self._conn_tasks, timeout=self.drain_seconds
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await self.batcher.stop()

    async def __aenter__(self) -> "PredictServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    @property
    def uptime_seconds(self) -> float:
        if self._started_at == 0.0:
            return 0.0
        return time.monotonic() - self._started_at

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload (also handy in-process for tests)."""
        return {
            "server": {
                "connections": self.connections,
                "open_connections": self.batcher.open_connections,
                "requests": self.requests,
                "disconnects": self.disconnects,
                "responses": dict(self.responses),
                "uptime_s": self.uptime_seconds,
            },
            "batch": {
                "max_batch": self.batcher.max_batch,
                "linger_us": self.batcher.linger_us,
                **self.batcher.stats.as_dict(),
            },
            "theta": self.resolver.stats(),
            "errors": dict(self.errors),
        }

    # -- connection handling --------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        self.batcher.connection_opened()
        try:
            while True:
                try:
                    request = await _read_request(
                        reader, self.max_body_bytes
                    )
                except ProtocolError as err:
                    # Framing-level refusal: answer and drop the
                    # connection (its byte stream is unsynchronised).
                    self.requests += 1
                    await self._send(writer, err.status,
                                     encode_error(err), close=True)
                    self._count_error(err)
                    break
                if request is None:
                    break  # clean EOF between requests.
                self.requests += 1
                status, body = await self._dispatch(request)
                await self._send(writer, status, body, close=request.close)
                if request.close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            # Mid-request/mid-response disconnect: nothing left to
            # answer; any batch the request rode in completes for the
            # other riders (the batcher skips abandoned futures).
            self.disconnects += 1
        finally:
            self.batcher.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # already torn down; close is best-effort.

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: dict[str, Any],
        *,
        close: bool,
    ) -> None:
        self.responses[str(status)] = self.responses.get(str(status), 0) + 1
        writer.write(_encode_http(status, body, close=close))
        await writer.drain()

    def _count_error(self, err: ProtocolError) -> None:
        self.errors[err.code] = self.errors.get(err.code, 0) + 1

    # -- request dispatch -----------------------------------------------

    async def _dispatch(
        self, request: _HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        try:
            if request.target == "/healthz":
                self._require_method(request, "GET")
                return 200, {"ok": True}
            if request.target == "/stats":
                self._require_method(request, "GET")
                return 200, self.stats()
            if request.target == "/predict":
                self._require_method(request, "POST")
                return await self._predict(request.body)
            raise ProtocolError(
                404, "not_found", f"no route {request.target!r}"
            )
        except ProtocolError as err:
            self._count_error(err)
            return err.status, encode_error(err)
        except Exception as err:  # the handler's last-resort boundary
            internal = ProtocolError(
                500, "internal", f"{type(err).__name__}: {err}"
            )
            self._count_error(internal)
            return internal.status, encode_error(internal)

    @staticmethod
    def _require_method(request: _HttpRequest, method: str) -> None:
        if request.method != method:
            raise ProtocolError(
                405,
                "bad_method",
                f"{request.target} requires {method}, got {request.method}",
            )

    async def _predict(self, body: bytes) -> tuple[int, dict[str, Any]]:
        # Parse, resolve and bound the query inside one synchronous
        # `request` span (fitted-theta first touch runs a campaign here
        # -- slow once, then memoised/store-cached).
        with self.recorder.span("request", bytes=len(body)):
            query = parse_predict_body(body)
            engine = self.resolver.engine(query)
            kernel = build_kernel(query, engine.config)
            ideal = engine.ideal_time(kernel)
            if ideal > self.max_simulated_seconds:
                raise ProtocolError(
                    400,
                    "query_too_large",
                    f"kernel needs {ideal:.3g} simulated seconds, over "
                    f"the {self.max_simulated_seconds:g} s service limit",
                )
        try:
            result, width = await self.batcher.submit(engine, kernel)
        except (ValueError, KeyError) as err:
            # The engine refused the built kernel: a client problem.
            raise ProtocolError(400, "bad_kernel", str(err))
        with self.recorder.span(
            "respond", kernel=query.kernel, platform=query.platform_id
        ):
            payload = encode_response(query, result, width)
        return 200, payload

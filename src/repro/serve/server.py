"""Hand-rolled HTTP/1.1 predict server on ``loop.create_server``.

Stdlib only, by design: the service is one event loop, one listening
socket, one :class:`asyncio.Protocol` per connection and one
:class:`~repro.serve.batcher.Batcher`, with no task per connection
and no dispatcher task.  Keep-alive is supported -- closed-loop load
generators reuse one connection per client -- and the implemented
protocol subset is deliberately small: request line, headers,
``Content-Length`` bodies (no chunked encoding).  A connection
answers in strict request/response alternation: while a request is
in flight it only buffers, so pipelined requests are answered in
order, one at a time.  Each connection is registered with the batcher
while it is open, and alternation means a connection has at most one
request in the batcher, so an assembly holding a request from every
open connection is complete: the batcher runs it then, and
``linger_us`` is only the longest it waits.

A request is taken from the connection's buffer once its head's blank
line has arrived (a head over 8 KiB is refused without waiting for
one) and then its whole body.  Memory per connection is bounded:
reading pauses while the buffer holds more than one head plus one
maximum body, and no request is dispatched while the transport's
writes are paused.  ``/healthz``, ``/stats`` and routing errors are
answered at once, and so is a ``/predict`` whose own submission ran
its assembly; any other ``/predict`` response is written from its
batcher future's done-callback.

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
(response encoding) spans.  Every span opens and closes inside one
synchronous callback -- recorder nesting is strictly LIFO, and
interleaved callbacks would corrupt it -- so span durations measure
CPU sections, and queueing time is the gap between a request's
``request`` and ``respond`` spans.  ``archline serve --trace`` exports
the collected spans with
:func:`repro.telemetry.jsonl.write_recorder_trace` in the campaign
JSONL schema (docs/TELEMETRY.md) under a single pseudo-shard named
``"serve"``, so the existing validator, reader and flame summary all
work on service traces unchanged.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from typing import Any, NamedTuple, cast

from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
from .batcher import Batcher
from .protocol import (
    PredictQuery,
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

#: The blank line that ends a head (lines end in LF or CRLF).
_HEAD_END = re.compile(rb"(?:^|\n)\r?\n")

#: How long :meth:`PredictServer.stop` lets closing connections flush
#: their last responses before it drops them.
_CLOSE_GRACE_SECONDS = 1.0


class _Head(NamedTuple):
    """A parsed request head."""

    method: str
    target: str
    size: int  #: bytes of the head, blank line included.
    length: int  #: ``Content-Length``.
    close: bool  #: client sent ``Connection: close``.


def _parse_head(head: bytes, max_body_bytes: int) -> _Head:
    """Parse one complete head (through its blank line).

    Raises :class:`ProtocolError` for a malformed request line, header
    or ``Content-Length``, and 413 for a body over ``max_body_bytes``
    (refused before any of it is read).
    """
    text = head.decode("latin-1")
    request_line, *header_lines = text.split("\n")[:-2] or [text]
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(
            400, "bad_http", f"malformed request line {request_line!r}"
        )
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in header_lines:
        name, sep, value = line.partition(":")
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
        # Refuse without reading: the connection answers 413 and
        # closes rather than swallowing an arbitrary body.
        raise ProtocolError(
            413,
            "body_too_large",
            f"body of {length} bytes exceeds the {max_body_bytes} byte "
            f"limit",
        )
    close = headers.get("connection", "").lower() == "close"
    return _Head(method, target, len(head), length, close)


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


class _Connection(asyncio.Protocol):
    """One client connection: frames requests out of its buffer and
    answers them in strict request/response alternation."""

    def __init__(self, server: "PredictServer") -> None:
        self.server = server
        self.transport: asyncio.Transport  # set by connection_made
        self.buffer = bytearray()
        #: Bytes past which reading pauses: one head plus one body.
        self.limit = _MAX_HEAD_BYTES + server.max_body_bytes
        self.head: _Head | None = None  #: parsed, awaiting its body.
        #: The ``/predict`` in flight: its future, query and whether
        #: the client asked to close after it.
        self.waiting: tuple[asyncio.Future, PredictQuery, bool] | None = None
        self.writing_paused = False
        self.eof = False
        #: Nothing more is answered: this side closed, or the client left.
        self.closed = False

    # -- asyncio.Protocol -----------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self.server._opened(self)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._advance()

    def eof_received(self) -> bool:
        self.eof = True
        self._advance()
        return True  # half-open: a request in flight is still answered.

    def pause_writing(self) -> None:
        self.writing_paused = True

    def resume_writing(self) -> None:
        self.writing_paused = False
        self._advance()

    def connection_lost(self, exc: Exception | None) -> None:
        if not self.closed and (
            exc is not None or self.waiting is not None or self.buffer
        ):
            # Gone mid-request or mid-response: nothing left to
            # answer; any batch the request rode in completes for the
            # other riders (the batcher skips abandoned futures).
            self.server.disconnects += 1
        self.closed = True
        if self.waiting is not None:
            self.waiting[0].cancel()
        self.server._lost(self)

    # -- framing ----------------------------------------------------------

    def _advance(self) -> None:
        """Answer the requests the buffer holds, one at a time, then
        pause or resume reading by what is left."""
        server = self.server
        while not (
            self.closed
            or self.waiting is not None
            or self.writing_paused
            or server.stopping
        ):
            try:
                request = self._take()
            except ProtocolError as err:
                # Framing-level refusal: answer and drop the connection
                # (its byte stream is unsynchronised).
                server.requests += 1
                self.respond(*server._refusal(err), close=True)
                return
            if request is None:
                if self.eof:
                    # Nothing more will arrive; a partial request left
                    # behind counts as a disconnect.
                    self.transport.close()
                break
            server.requests += 1
            server._dispatch(self, *request)
        # Both calls are no-ops when already in that state or closing.
        if len(self.buffer) > self.limit:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    def _take(self) -> tuple[_Head, bytes] | None:
        """The next whole request's head and body, removed from the
        buffer; ``None`` until it has all arrived."""
        buffer = self.buffer
        head = self.head
        if head is None:
            end = _HEAD_END.search(buffer, 0, _MAX_HEAD_BYTES)
            if end is None:
                if len(buffer) >= _MAX_HEAD_BYTES:
                    raise ProtocolError(
                        400,
                        "bad_http",
                        f"request head over {_MAX_HEAD_BYTES} bytes",
                    )
                return None
            head = self.head = _parse_head(
                bytes(buffer[: end.end()]), self.server.max_body_bytes
            )
        size = head.size + head.length
        if len(buffer) < size:
            return None
        body = bytes(buffer[head.size:size])
        del buffer[:size]
        self.head = None
        return head, body

    # -- answering --------------------------------------------------------

    def respond(
        self, status: int, body: dict[str, Any], *, close: bool
    ) -> None:
        responses = self.server.responses
        responses[str(status)] = responses.get(str(status), 0) + 1
        self.transport.write(_encode_http(status, body, close=close))
        if close:
            self.close()

    def close(self) -> None:
        """Close from this side, after what is written has flushed."""
        self.closed = True
        self.transport.close()

    def wait_for(
        self, future: asyncio.Future, query: PredictQuery, close: bool
    ) -> None:
        """Answer ``query`` once the batcher completes ``future``: at
        once when this request's own submission ran its assembly."""
        if future.done():
            self.respond(*self.server._predicted(query, future), close=close)
            return
        self.waiting = (future, query, close)
        future.add_done_callback(self._answered)

    def _answered(self, future: asyncio.Future) -> None:
        assert self.waiting is not None
        _, query, close = self.waiting
        self.waiting = None
        if self.closed or future.cancelled():
            return  # the client left; connection_lost counted it.
        self.respond(*self.server._predicted(query, future), close=close)
        self._advance()


class PredictServer:
    """The asyncio predict service.

    Construct, then ``await start()`` (binds the socket and starts the
    batcher); ``port`` reports the actual bound port (pass ``port=0``
    in tests for an ephemeral one).  ``await stop()`` closes the
    listener, runs the batcher's open assembly so every request in
    flight is answered, and closes every connection.  Also usable as
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
    ) -> None:
        self.host = host
        self._requested_port = port
        self.max_body_bytes = max_body_bytes
        self.max_simulated_seconds = max_simulated_seconds
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.resolver = resolver or ThetaResolver(recorder=self.recorder)
        self.batcher = Batcher(
            max_batch=max_batch,
            linger_us=linger_us,
            max_simulated_seconds=max_simulated_seconds,
            recorder=self.recorder,
        )
        self._server: asyncio.base_events.Server | None = None
        self._open: set[_Connection] = set()
        #: Resolved once every connection has closed, while stopping.
        self._all_closed: asyncio.Future | None = None
        self.stopping = False
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
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self),
            host=self.host,
            port=self._requested_port,
        )
        self._started_at = time.monotonic()

    @property
    def port(self) -> int:
        """The actually bound port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, answer what is in flight,
        close every connection."""
        if self._server is None:
            return
        self._server.close()
        self._server = None
        self.stopping = True
        # Run the open assembly; its done-callbacks, which write the
        # answers, run on the loop's next turn.
        await self.batcher.stop()
        await asyncio.sleep(0)
        for conn in list(self._open):
            conn.close()
        if self._open:
            self._all_closed = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(
                    self._all_closed, _CLOSE_GRACE_SECONDS
                )
            except asyncio.TimeoutError:
                # A client that reads nothing cannot hold shutdown up.
                for conn in list(self._open):
                    conn.transport.abort()

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

    # -- connection bookkeeping -------------------------------------------

    def _opened(self, conn: _Connection) -> None:
        self.connections += 1
        self._open.add(conn)
        self.batcher.connection_opened()

    def _lost(self, conn: _Connection) -> None:
        self._open.discard(conn)
        self.batcher.connection_closed()
        if (
            not self._open
            and self._all_closed is not None
            and not self._all_closed.done()
        ):
            self._all_closed.set_result(None)

    # -- request dispatch -----------------------------------------------

    def _dispatch(self, conn: _Connection, head: _Head, body: bytes) -> None:
        """Answer one request at once, or, for a ``/predict``, once
        the batcher has run it."""
        try:
            if head.target == "/healthz":
                self._require_method(head, "GET")
                reply: tuple[int, dict[str, Any]] = (200, {"ok": True})
            elif head.target == "/stats":
                self._require_method(head, "GET")
                reply = (200, self.stats())
            elif head.target == "/predict":
                self._require_method(head, "POST")
                conn.wait_for(*self._submit(body), head.close)
                return
            else:
                raise ProtocolError(
                    404, "not_found", f"no route {head.target!r}"
                )
        except Exception as err:  # the handler's last-resort boundary
            reply = self._refusal(err)
        conn.respond(*reply, close=head.close)

    def _refusal(self, err: Exception) -> tuple[int, dict[str, Any]]:
        """The typed error response for ``err``, counted: a
        :class:`ProtocolError` as it is, anything else as a 500."""
        if not isinstance(err, ProtocolError):
            err = ProtocolError(
                500, "internal", f"{type(err).__name__}: {err}"
            )
        self.errors[err.code] = self.errors.get(err.code, 0) + 1
        return err.status, encode_error(err)

    @staticmethod
    def _require_method(head: _Head, method: str) -> None:
        if head.method != method:
            raise ProtocolError(
                405,
                "bad_method",
                f"{head.target} requires {method}, got {head.method}",
            )

    def _submit(
        self, body: bytes
    ) -> tuple[asyncio.Future, PredictQuery]:
        # Parse, resolve and build the kernel inside one synchronous
        # `request` span (fitted-theta first touch runs a campaign here
        # -- slow once, then memoised/store-cached).  The batcher bounds
        # the query's simulated time from the same physics pass that
        # runs it.
        with self.recorder.span("request", bytes=len(body)):
            query = parse_predict_body(body)
            engine = self.resolver.engine(query)
            kernel = build_kernel(query, engine.config)
        return self.batcher.submit(engine, kernel), query

    def _predicted(
        self, query: PredictQuery, future: asyncio.Future
    ) -> tuple[int, dict[str, Any]]:
        """The response to ``query`` from its completed future."""
        try:
            batch, row, width = future.result()
            with self.recorder.span(
                "respond", kernel=query.kernel, platform=query.platform_id
            ):
                return 200, encode_response(query, batch, row, width)
        except (ValueError, KeyError) as err:
            # The engine refused the built kernel: a client problem.
            return self._refusal(ProtocolError(400, "bad_kernel", str(err)))
        except Exception as err:  # the handler's last-resort boundary
            return self._refusal(err)

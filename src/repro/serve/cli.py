"""The ``archline serve`` subcommand: run the predict service.

Starts a :class:`~repro.serve.server.PredictServer` on the requested
interface and runs until SIGINT/SIGTERM, then shuts down gracefully:
the listener closes, in-flight requests drain, the batcher flushes,
and -- when ``--trace`` was given -- the whole run's telemetry spans
are written as a JSONL trace (same schema as ``archline campaign
--trace``; docs/TELEMETRY.md) before the final stats summary prints.

The fitted-theta path shares the campaign store with the rest of the
CLI: ``--cache DIR`` (or ``$ARCHLINE_CACHE``) makes ``"theta":
"fitted"`` queries replay campaigns bit-identically from disk;
``--quick-fit`` shrinks first-touch campaigns for smoke runs.  Exit
code 0 on clean shutdown, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import TYPE_CHECKING

from ..flags import nonnegative_int, port_number, positive_int
from ..store.cli import CACHE_DIR_ENV, resolve_cache_dir

if TYPE_CHECKING:
    from .server import PredictServer

__all__ = ["build_serve_parser", "run_serve"]


def build_serve_parser(
    parent: argparse._SubParsersAction,
) -> argparse.ArgumentParser:
    """Attach the ``serve`` subcommand to the main parser."""
    parser = parent.add_parser(
        "serve",
        help="run the async batched prediction service",
        description="JSON-over-HTTP predict service (docs/SERVE.md): "
        "POST /predict bodies like "
        '\'{"kernel": "matmul", "platform": "gtx-titan", "n": 1024}\'; '
        "concurrent requests coalesce into vectorised engine batches.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=port_number,
        default=8787,
        help="listen port; 0 picks a free one (default 8787)",
    )
    parser.add_argument(
        "--max-batch",
        type=positive_int,
        default=32,
        metavar="N",
        help="max requests coalesced into one assembly (default 32)",
    )
    parser.add_argument(
        "--linger-us",
        type=nonnegative_int,
        default=1000,
        metavar="US",
        help="batching window in microseconds after the first request "
        "of an assembly (default 1000)",
    )
    parser.add_argument(
        "--max-body-bytes",
        type=positive_int,
        default=64 * 1024,
        metavar="BYTES",
        help="request bodies larger than this answer 413 (default 64KiB)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSONL",
        help="record request/batch/engine telemetry spans and write "
        "them as JSONL on shutdown (schema: docs/TELEMETRY.md)",
    )
    parser.add_argument(
        "--cache",
        dest="cache_dir",
        default=None,
        metavar="DIR",
        help="campaign store for fitted-theta resolution (default: "
        f"${CACHE_DIR_ENV} if set; docs/CACHE.md)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"resolve fitted theta uncached even when ${CACHE_DIR_ENV} "
        "is set",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="with a cache: skip lookups, recompute campaigns/fits and "
        "republish",
    )
    parser.add_argument(
        "--quick-fit",
        action="store_true",
        help="shrunken campaigns for fitted-theta resolution (smoke "
        "runs; predictions differ from full-campaign theta-hat)",
    )
    parser.add_argument("--seed", type=nonnegative_int, default=2014)
    return parser


async def _run_until_signal(server: PredictServer) -> None:
    """Serve until SIGINT/SIGTERM (or KeyboardInterrupt on platforms
    without ``add_signal_handler``), then stop gracefully."""
    import asyncio

    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop_event.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            break  # e.g. non-Unix loop: fall back to KeyboardInterrupt.
    await server.start()
    print(
        f"archline serve: listening on {server.host}:{server.port} "
        f"(max_batch={server.batcher.max_batch}, "
        f"linger_us={server.batcher.linger_us})",
        file=sys.stderr,
        flush=True,
    )
    try:
        await stop_event.wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass  # treat like a signal: proceed to graceful shutdown.
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        print("archline serve: shutting down...", file=sys.stderr, flush=True)
        await server.stop()


def run_serve(args: argparse.Namespace) -> int:
    """Run the service as configured by the parsed arguments."""
    import asyncio

    from ..microbench.suite import CampaignSettings
    from ..telemetry.jsonl import write_recorder_trace
    from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
    from .server import PredictServer
    from .theta import ThetaResolver

    if args.no_cache and args.cache_dir is not None:
        print(
            "archline serve: --cache and --no-cache are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    cache_dir = None if args.no_cache else resolve_cache_dir(args.cache_dir)
    if args.refresh and cache_dir is None:
        print(
            "archline serve: --refresh needs a cache (--cache DIR or "
            f"${CACHE_DIR_ENV})",
            file=sys.stderr,
        )
        return 2
    store = None
    if cache_dir is not None:
        from ..store.store import CampaignStore

        store = CampaignStore(cache_dir)
    recorder = TraceRecorder() if args.trace else NULL_RECORDER
    settings = CampaignSettings(seed=args.seed)
    if args.quick_fit:
        settings = settings.scaled_down()
    resolver = ThetaResolver(
        store=store,
        settings=settings,
        refresh=args.refresh,
        recorder=recorder,
    )
    server = PredictServer(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        linger_us=args.linger_us,
        max_body_bytes=args.max_body_bytes,
        resolver=resolver,
        recorder=recorder,
    )
    started = time.perf_counter()
    try:
        asyncio.run(_run_until_signal(server))
    except KeyboardInterrupt:
        pass  # ^C raced the handler install; shutdown already ran.
    wall = time.perf_counter() - started
    if args.trace:
        lines = write_recorder_trace(
            args.trace, "serve", recorder, wall_seconds=wall
        )
        print(
            f"trace: {lines} records -> {args.trace}",
            file=sys.stderr,
            flush=True,
        )
    print(json.dumps(server.stats(), sort_keys=True))
    return 0

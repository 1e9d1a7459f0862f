"""Workload ``serve_fitted``: ``archline serve`` answering fitted-θ̂ queries.

Untimed preparation fills a store with ``archline campaign`` over three
platforms.  Each sample then copies that store, spawns ``archline serve
--cache COPY --seed S`` and drives it from this process in three phases:

(a) cold start: one ``"theta": "fitted"`` query per platform, timed from
    the spawn until every platform has answered 200 (``cold_s``).
    Today serve misses the entries ``archline campaign`` wrote (ROADMAP
    item 2) and refits all three platforms here;
(b) closed loop: ``nproc`` keep-alive connections send a fixed-count
    seeded mix back to back, each request timed from send to reply
    (``warm_ms``: the sample's median);
(c) traced runs only: an open loop at a fixed offered rate, about half
    the closed-loop throughput, over the same connections, each request
    timed from its due time (``serve.p99_ms``, ``loadgen.late_ms``).

The closed loop's median, not the open loop and not a tail percentile,
is the end-to-end latency.  On a shared host, busy minutes stall the
benchmark and the server for milliseconds at a time.  In an open loop
each stall leaves a backlog that every later request waits out, and
one server's p90 ranged from 4 to 150 ms across identical runs.  In a
closed loop a stall delays only the requests in flight, yet even its
p90 read 3.7 ms in quiet minutes and up to 8.7 ms in busy ones, while
its median moved by a tenth.

Untraced, every other sample runs only phase (a), so the process-level
figures get twice the samples of the load phases.  The benchmark and
the server are pinned to one CPU, so the reference loop that scales
``setup_s`` and ``cold_s`` runs where the server runs.  The steady
state runs only ``Engine.run_batch``/``governor_batch`` with
``rng=None`` plus HTTP and the batcher: no ``measure`` and no ``fit``.

Checks per sample: every response is 200, and a seeded sample of
responses (plus every cold-start response) equals
``encode_prediction`` of an unbatched ``Engine(config, rng=None).run``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import shutil
import signal
import socket
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.experiments.common import CampaignSettings
from repro.serve.loadgen import HttpClient, generate_mix
from repro.serve.protocol import build_kernel, encode_prediction, parse_predict_body
from repro.serve.theta import ThetaResolver

from . import procs
from .load import FAILED, closed_loop, open_loop, percentile
from .result import Run, rounds
from .spans import layer_metrics, trace_self_times

PLATFORMS = ("gtx-titan", "nuc-gpu", "arndale-gpu")
NPROC = len(os.sched_getaffinity(0))
CLOSED_REQUESTS = 1200
OPEN_REQUESTS = 450
#: Offered open-loop rate, requests/s: about half the closed-loop
#: throughput on a 2-core box, so the queue stays short and the tail
#: measures service, not collapse.
OPEN_RATE = 300.0
ORACLE_SAMPLE = 40
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0
MIN_SAMPLES = 3
#: The per-layer metrics this workload measures; the others name layers
#: it never runs.
PER_LAYER = (
    "cli.import_s", "cli.import_scipy_s",
    "measurement.measure_s", "measurement.measures", "core.fit_s", "core.fits",
    "machine.engine_s", "machine.runs", "microbench.calibrate_s",
    "machine.engine_batch_s", "machine.governor_batch_s",
    "store.lookup_s", "store.put_s", "store.hits", "store.misses", "store.hit_ratio",
    "serve.request_s", "serve.respond_s", "serve.batch_assemble_s",
    "serve.batch_width_mean", "serve.batches", "serve.p99_ms", "loadgen.late_ms",
    "proc.cpu_s", "proc.max_rss_mb", "trace.overhead_ratio",
)


def _cold_query(platform_id: str) -> dict[str, Any]:
    return {"kernel": "triad", "platform": platform_id, "n": 1e6, "theta": "fitted"}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _exited(pid: int) -> bool:
    """Whether the child has exited, without reaping it."""
    return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def _wait_healthy(pid: int, port: int, started: float) -> float | None:
    """Seconds from ``started`` to the first ``/healthz`` 200."""
    request = b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    while time.perf_counter() - started < START_TIMEOUT_S and not _exited(pid):
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(request)
                status = sock.makefile("rb").readline().split()[1:2]
            if status == [b"200"]:
                return time.perf_counter() - started
        except OSError:
            pass  # not listening yet.
        time.sleep(0.002)
    return None


class _Client:
    """Sends predict queries and keeps every exchange for the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.exchanges: list[tuple[dict, int, dict]] = []
        #: Seconds from send to reply of every request, FAILED if it failed.
        self.latencies: list[float] = []

    async def send(self, conn: HttpClient, query: dict[str, Any]) -> bool:
        self.attempted += 1
        sent = time.perf_counter()
        try:
            status, body = await asyncio.wait_for(
                conn.request("POST", "/predict", query), REQUEST_TIMEOUT_S
            )
        except (OSError, EOFError, ValueError, asyncio.TimeoutError):
            await conn.close()  # the next request reconnects.
            self.latencies.append(FAILED)
            return False
        self.exchanges.append((query, status, body))
        ok = status == 200
        self.latencies.append(time.perf_counter() - sent if ok else FAILED)
        return ok


async def _drive(
    port: int,
    started: float,
    mixes: tuple[list, list | None] | None,
    reference: Callable[[], float],
) -> dict[str, Any]:
    """Phase (a), then phase (b) with ``mixes[0]`` and phase (c) with
    ``mixes[1]``, each unless None; ``reference()`` runs right after
    phase (a)."""
    client = _Client()
    conns = [HttpClient("127.0.0.1", port) for _ in range(NPROC)]
    phases: dict[str, Any] = {"client": client}
    try:
        cold_ok = [await client.send(conns[0], _cold_query(p)) for p in PLATFORMS]
        phases["first_ok_s"] = time.perf_counter() - started
        phases["reference_s"] = reference()
        phases["failed"] = cold_ok.count(False)
        if mixes is not None:
            closed, offered = mixes
            first = len(client.latencies)
            phases["closed_s"], failed = await closed_loop(client.send, closed, conns)
            phases["closed_latencies"] = client.latencies[first:]
            phases["failed"] += failed
            if offered is not None:
                phases["book"] = book = await open_loop(
                    client.send, offered, conns, rate=OPEN_RATE
                )
                phases["failed"] += book.failures
        status, stats = await conns[0].request("GET", "/stats")
        phases["stats"] = stats if status == 200 else None
    finally:
        for conn in conns:
            await conn.close()
    return phases


def _check(run: Run, oracle: ThetaResolver, client: _Client, rng: random.Random) -> None:
    """Compare every cold-start response and a seeded sample of the rest
    with the unbatched ground truth: the program's own resolver and
    encoder, driven through scalar ``Engine.run``."""
    cold = client.exchanges[: len(PLATFORMS)]
    rest = client.exchanges[len(PLATFORMS):]
    for query, status, body in cold + rng.sample(rest, min(ORACLE_SAMPLE, len(rest))):
        if status != 200:
            continue
        parsed = parse_predict_body(json.dumps(query).encode("utf-8"))
        engine = oracle.engine(parsed)
        expected = encode_prediction(engine.run(build_kernel(parsed, engine.config)))
        run.check(
            body.get("prediction") == expected,
            f"served == unbatched oracle for {query}",
        )


def _sample(
    run: Run,
    *,
    seed: int,
    prep: Path,
    work: Path,
    mixes: tuple[list, list | None] | None,
    oracle: ThetaResolver,
    rng: random.Random,
    trace_path: Path | None,
) -> dict[str, Any] | None:
    """One server lifetime, loaded with ``mixes`` unless it is None;
    the measured figures, or ``None``."""
    store = work / "store"
    shutil.copytree(prep, store)
    port = _free_port()
    argv = procs.cli("serve", "--port", str(port), "--cache", str(store), "--seed", str(seed))
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    out = work / "out"
    before = procs.reference_s()
    started = time.perf_counter()
    proc, out_path, err_path = procs.spawn(argv, out)
    try:
        setup_s = _wait_healthy(proc.pid, port, started)
        if not run.op(setup_s is not None, "archline serve never answered /healthz"):
            return None
        # A cyclic collection mid-phase would stall the generator for
        # tens of milliseconds; collect between samples instead.
        gc.collect()
        gc.disable()
        try:
            phases = asyncio.run(_drive(port, started, mixes, procs.reference_s))
        finally:
            gc.enable()
        proc.send_signal(signal.SIGINT)
        server = procs.reap(proc, out_path, err_path, time.perf_counter(), 60.0)
    finally:
        procs.kill(proc)
    client = phases["client"]
    n_requests, failed = client.attempted, phases["failed"]
    run.ops(n_requests, failed)
    ok = all((
        run.op(server.ok, server.describe()),
        run.op(phases["stats"] is not None, "GET /stats"),
        run.check(failed == 0, f"{failed} of {n_requests} responses not 200"),
    ))
    _check(run, oracle, client, rng)
    shutil.rmtree(store)
    # Reference seconds (see ``procs``).
    scale = 2 * procs.REFERENCE_S / (before + phases["reference_s"])
    scaled = {"setup_s": setup_s * scale, "cold_s": phases["first_ok_s"] * scale}
    return {**phases, **scaled, "server": server} if ok else None


def measure(run: Run, *, seed: int, seconds: float, trace: bool, work: Path) -> None:
    started = time.perf_counter()
    out = work / "out"
    prep = work / "prep-store"
    argv = procs.cli(
        "campaign", *PLATFORMS, "--workers", "1", "--seed", str(seed), "--cache", str(prep)
    )
    proc = procs.run(argv, out)
    if not run.op(proc.ok, proc.describe()):
        return
    mixes = (
        generate_mix(CLOSED_REQUESTS, seed=seed, platforms=PLATFORMS, theta="fitted"),
        generate_mix(OPEN_REQUESTS, seed=seed + 1, platforms=PLATFORMS, theta="fitted")
        if trace
        else None,
    )
    # Storeless, so it fits θ̂ afresh: served replays must equal it.
    oracle = ThetaResolver(settings=CampaignSettings(seed=seed))
    rng = random.Random(seed)
    closed_walls: dict[bool, list[float]] = {False: [], True: []}
    with procs.pinned():
        for k in rounds(seconds, 4 if trace else MIN_SAMPLES, started):
            # Traced runs alternate untraced and traced servers, all loaded.
            traced = trace and k % 2 == 1
            loaded = trace or k % 2 == 0
            trace_path = work / "serve.jsonl" if traced else None
            res = _sample(
                run, seed=seed, prep=prep, work=work, mixes=mixes if loaded else None,
                oracle=oracle, rng=rng, trace_path=trace_path,
            )
            if res is None:
                continue
            if not trace:
                run.add("setup_s", res["setup_s"], "s")
                run.add("cold_s", res["cold_s"], "s")
            if not loaded:
                continue
            closed_walls[traced].append(res["closed_s"])
            if not trace:
                run.add("warm_ms", percentile(res["closed_latencies"], 50) * 1e3, "ms")
                continue
            book = res["book"]
            if not book.valid:
                # The generator, not the server, shaped this tail.
                print(
                    f"open loop invalid: p99 generator lateness {book.late(99) * 1e3:.2f} ms",
                    file=sys.stderr,
                )
            if not traced:
                p99 = book.latency(99)
                if p99 != FAILED:
                    run.add("serve.p99_ms", p99 * 1e3, "ms")
                run.add("loadgen.late_ms", book.late(99) * 1e3, "ms")
                run.add("proc.cpu_s", res["server"].cpu_s, "s")
                run.add("proc.max_rss_mb", res["server"].max_rss_mb, "MB")
            else:
                _traced_layers(run, res, trace_path, work)
    if trace and closed_walls[False] and closed_walls[True]:
        run.add(
            "trace.overhead_ratio",
            statistics.median(closed_walls[True]) / statistics.median(closed_walls[False]),
            "ratio",
        )


def _traced_layers(run: Run, res: dict[str, Any], trace_path: Path, work: Path) -> None:
    stats = res["stats"]
    run.add("serve.batch_width_mean", stats["batch"]["mean_width"], "count")
    run.add("serve.batches", stats["batch"]["batches"], "count")
    store = stats["theta"]["store"]
    run.add("store.hits", store["hits"], "count")
    run.add("store.misses", store["misses"], "count")
    run.add("store.hit_ratio", store["hits"] / max(1, store["hits"] + store["misses"]), "ratio")
    for name, (value, unit) in layer_metrics(trace_self_times(trace_path)).items():
        run.add(name, value, unit)
    trace_path.unlink()
    procs.import_layers(run, work / "out")

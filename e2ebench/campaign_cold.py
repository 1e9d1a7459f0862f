"""Workload ``campaign_cold``: a cold Section V-A campaign and its replay.

Each round spawns ``archline campaign --workers 1 --seed S --cache D``
over all twelve Table I platforms against an empty store ``D``
(``cold_s``), then the identical command again, several times, against
the store that run just filled (the warm replays: ``warm_ms``).
Campaigns run inline: a pool wider than the cores
would measure the scheduler.  The cold run's self time is ``measure``,
``fit`` and ``engine`` (ROADMAP items 3(b) and 3(c)); the replay is
store lookups plus interpreter start and import (item 3(a)).  No serve
or fleet code runs.

Checks per round: both processes exit 0, the replay prints the same fit
table as the cold run (warm == cold), the cold run misses the store on
every platform and the replay hits it on every platform.
"""

from __future__ import annotations

import re
import shutil
import time
from pathlib import Path

from repro.machine.platforms import PLATFORM_IDS
from repro.telemetry.jsonl import read_spans

from . import procs
from .result import Run, rounds
from .spans import layer_metrics, trace_self_times

#: The per-layer metrics this workload measures; the others name layers
#: it never runs.
PER_LAYER = (
    "cli.import_s", "cli.import_scipy_s",
    "measurement.measure_s", "measurement.measures", "core.fit_s", "core.fits",
    "machine.engine_s", "machine.runs", "microbench.calibrate_s",
    "machine.engine_batch_s", "machine.governor_batch_s",
    "store.lookup_s", "store.put_s", "store.hits", "store.misses", "store.hit_ratio",
    "proc.cpu_s", "proc.max_rss_mb", "proc.replay_cpu_s",
    "trace.overhead_ratio", "trace.layer_coverage",
)
MIN_ROUNDS = 3
REPLAYS = 3

_CACHE_LINE = re.compile(r"^cache .*: (\d+) hits, (\d+) misses", re.MULTILINE)


def fit_table(stdout: str) -> list[tuple[str, ...]]:
    """The campaign table's rows without the timing column."""
    rows = []
    for line in stdout.splitlines():
        cells = line.split()
        if len(cells) == 5 and cells[0] in PLATFORM_IDS:
            rows.append(tuple(cells[:3] + cells[4:]))
    return rows


def cache_counts(stdout: str) -> tuple[int, int] | None:
    """``(hits, misses)`` from the campaign's printed cache line."""
    match = _CACHE_LINE.search(stdout)
    return None if match is None else (int(match[1]), int(match[2]))


def _campaigns(
    run: Run,
    seed: int,
    store: Path,
    out: Path,
    *,
    replays: int,
    trace_dir: Path | None = None,
) -> list[procs.Proc] | None:
    """A cold campaign into the empty ``store``, then ``replays`` warm
    replays of it; ``None`` unless all succeed and pass every check."""
    args = ["campaign", "--workers", "1", "--seed", str(seed), "--cache", str(store)]
    runs = []
    for phase in ["cold"] + ["warm"] * replays:
        extra = [] if trace_dir is None else ["--trace", str(trace_dir / f"{phase}.jsonl")]
        proc = procs.run(procs.cli(*args, *extra), out)
        if not run.op(proc.ok, proc.describe()):
            return None
        runs.append(proc)
    cold, *warm = runs
    n = len(PLATFORM_IDS)
    table = fit_table(cold.stdout)
    checks = [
        run.check(len(table) == n, f"cold fit table has {len(table)} of {n} rows"),
        run.check(cache_counts(cold.stdout) == (0, n), "cold run misses every shard"),
    ]
    for replay in warm:
        checks += [
            run.check(fit_table(replay.stdout) == table, "replay fit table == cold"),
            run.check(cache_counts(replay.stdout) == (n, 0), "replay hits every shard"),
        ]
    return runs if all(checks) else None


def _traced_round(run: Run, seed: int, work: Path, out: Path) -> None:
    base = _campaigns(run, seed, work / "store-untraced", out, replays=1)
    trace_dir = work / "trace"
    trace_dir.mkdir(exist_ok=True)
    traced = _campaigns(
        run, seed, work / "store-traced", out, replays=1, trace_dir=trace_dir
    )
    procs.import_layers(run, out)
    if base is None or traced is None:
        return
    cold, warm = base
    run.add("proc.cpu_s", cold.cpu_s, "s")
    run.add("proc.max_rss_mb", cold.max_rss_mb, "MB")
    run.add("proc.replay_cpu_s", warm.cpu_s, "s")
    run.add("trace.overhead_ratio", traced[0].scaled_s / cold.scaled_s, "ratio")
    hits, misses = cache_counts(traced[1].stdout)
    run.add("store.hits", hits, "count")
    run.add("store.misses", misses, "count")
    run.add("store.hit_ratio", hits / (hits + misses), "ratio")

    cold_times = trace_self_times(trace_dir / "cold.jsonl")
    times = dict(cold_times)
    for name, (seconds, count) in trace_self_times(trace_dir / "warm.jsonl").items():
        total, n = times.get(name, (0.0, 0))
        times[name] = (total + seconds, n + count)
    for name, (value, unit) in layer_metrics(times).items():
        run.add(name, value, unit)
    # Share of the cold campaign's shard time the three heavy layers'
    # self times account for.
    shard_s = sum(
        s.duration
        for spans in read_spans(trace_dir / "cold.jsonl").values()
        for s in spans
        if s.name == "shard"
    )
    heavy_s = sum(cold_times[name][0] for name in ("measure", "fit", "engine"))
    run.add("trace.layer_coverage", heavy_s / shard_s, "ratio")


def measure(run: Run, *, seed: int, seconds: float, trace: bool, work: Path) -> None:
    started = time.perf_counter()
    out = work / "out"
    procs.run(procs.IMPORT_CLI, out)  # untimed: writes bytecode caches.
    with procs.pinned():
        for _ in rounds(seconds, 2 if trace else MIN_ROUNDS, started):
            if trace:
                _traced_round(run, seed, work, out)
            else:
                procs.setup_sample(run, out)
                runs = _campaigns(run, seed, work / "store", out, replays=REPLAYS)
                if runs is not None:
                    run.add("cold_s", runs[0].scaled_s, "s")
                    for replay in runs[1:]:
                        run.add("warm_ms", replay.scaled_s * 1e3, "ms")
            for path in work.glob("store*"):
                shutil.rmtree(path)

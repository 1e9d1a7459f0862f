"""Workload ``fleet_solve``: ``archline fleet`` procurement solves.

Each cold sample is a fresh ``archline fleet --workload
fleet_workload.json --json OUT`` process with truth θ̂ (the CLI default)
over all twelve platforms (``cold_s``).  Each warm sample is the same
command run through ``repro.cli.main`` in the benchmark's own,
already-imported interpreter (``warm_ms``): the fleet
CLI keeps no state between invocations, so a loaded interpreter is the
only warm state it has, and the warm solve is the cold one without the
interpreter start and import.  The input is an 8-bin histogram: the bins
of the repository's example workload plus triad, mergesort and a
small-matmul bin.  Every variant below makes the polish phase stop at
its 200 000-state cap, so ``fleet_solve`` is a large, steady share of
each sample (ROADMAP item 4); the 4-bin instance of the perf trajectory
solves in milliseconds, invisible beside a second of import.  Each
round solves one variant, cold and then warm, cycling through the
variants from a seed-chosen one; the variants cost about the same, so a
run that ends mid-cycle weighs them near enough alike.  No campaign,
store or serve code runs.

Checks: every solve exits 0, and the ``--json`` report is byte-identical
across repetitions of one variant, cold or warm, traced or not.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from repro.cli import main as cli_main

from . import procs
from .result import Run, rounds
from .spans import layer_metrics, trace_self_times

WORKLOAD = Path(__file__).with_name("fleet_workload.json")
VARIANTS = (
    ("--objective", "energy"),
    ("--objective", "energy", "--power-budget", "2000", "--cost-budget", "50000"),
    ("--objective", "cost", "--power-budget", "1000"),
)
#: The per-layer metrics this workload measures; the others name layers
#: it never runs.
PER_LAYER = (
    "cli.import_s", "cli.import_scipy_s",
    "fleet.evaluate_s", "fleet.solve_s", "fleet.states_explored",
    "proc.cpu_s", "proc.max_rss_mb", "trace.overhead_ratio",
)
MIN_ROUNDS = 6
#: Warm solves per cold one: a warm solve costs less than half a cold
#: process, so more of them steady the warm median cheaply.
WARM_SOLVES = 3


def _args(variant: int, seed: int, report: Path) -> list[str]:
    return [
        "fleet", "--workload", str(WORKLOAD), *VARIANTS[variant],
        "--seed", str(seed), "--json", str(report),
    ]


def _same_report(run: Run, variant: int, report: Path, reports: dict[int, bytes]) -> bool:
    body = report.read_bytes()
    first = reports.setdefault(variant, body)
    return body is first or run.check(
        body == first, f"variant {variant} report differs from its first run"
    )


def _solve(
    run: Run,
    variant: int,
    seed: int,
    work: Path,
    reports: dict[int, bytes],
    trace_path: Path | None = None,
) -> procs.Proc | None:
    report = work / "report.json"
    argv = procs.cli(*_args(variant, seed, report))
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    proc = procs.run(argv, work / "out")
    if not run.op(proc.ok, proc.describe()):
        return None
    return proc if _same_report(run, variant, report, reports) else None


def _warm_solve(
    run: Run, variant: int, seed: int, work: Path, reports: dict[int, bytes]
) -> float | None:
    """Reference seconds of one in-process solve, or ``None``."""
    report = work / "warm-report.json"
    argv = _args(variant, seed, report)
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code, seconds = procs.timed_call(lambda: cli_main(argv))
    except Exception as err:  # counted as a failed operation.
        code, seconds = repr(err), 0.0
    if not run.op(code == 0, f"in-process fleet variant {variant}: {code}"):
        return None
    return seconds if _same_report(run, variant, report, reports) else None


def measure(run: Run, *, seed: int, seconds: float, trace: bool, work: Path) -> None:
    started = time.perf_counter()
    procs.run(procs.IMPORT_CLI, work / "out")  # untimed: writes bytecode caches.
    order = [(seed + i) % len(VARIANTS) for i in range(len(VARIANTS))]
    reports: dict[int, bytes] = {}
    ratios: list[float] = []
    with procs.pinned():
        if not trace:
            # Untimed: finishes the lazy imports of the warm path.
            _warm_solve(run, order[0], seed, work, reports)
        for k in rounds(seconds, MIN_ROUNDS, started):
            variant = order[k % len(order)]
            if k % len(order) == 0:
                if trace:
                    procs.import_layers(run, work / "out")
                else:
                    procs.setup_sample(run, work / "out")
            proc = _solve(run, variant, seed, work, reports)
            if proc is None:
                continue
            if not trace:
                run.add("cold_s", proc.scaled_s, "s")
                for _ in range(WARM_SOLVES):
                    solved = _warm_solve(run, variant, seed, work, reports)
                    if solved is not None:
                        run.add("warm_ms", solved * 1e3, "ms")
                continue
            run.add("proc.cpu_s", proc.cpu_s, "s")
            run.add("proc.max_rss_mb", proc.max_rss_mb, "MB")
            trace_path = work / "fleet.jsonl"
            traced = _solve(run, variant, seed, work, reports, trace_path)
            if traced is None:
                continue
            ratios.append(traced.scaled_s / proc.scaled_s)
            for name, (value, unit) in layer_metrics(trace_self_times(trace_path)).items():
                run.add(name, value, unit)
            states = json.loads(reports[variant])["solution"]["states_explored"]
            run.add("fleet.states_explored", states, "count")
    if ratios:
        run.add("trace.overhead_ratio", statistics.median(ratios), "ratio")

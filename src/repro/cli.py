"""Command-line interface: ``archline``.

Commands
--------
``archline list``
    List the registered experiments and the twelve platforms.
``archline run <experiment-id> [...]``
    Run one or more experiment reproductions and print their reports.
``archline all``
    Run every experiment (one shared campaign pass).
``archline platform <platform-id>``
    Describe one platform: parameters, balances, regimes.
``archline bench <platform-id>``
    Run the microbenchmark campaign on one platform and print the
    fitted vs ground-truth parameters.
``archline bench --trajectory [--check | --update]``
    Run the fixed perf-trajectory suite (five campaigns) and write the
    schema-versioned ``BENCH_campaign.json``; ``--check`` gates the
    measurement against the committed baseline (exit 1 on a >10%
    wall-time regression), ``--update`` refreshes it.  Methodology:
    docs/BENCHMARKS.md.
``archline campaign [platform-id ...] [--workers N] [--faults SPEC]``
    Run the full per-platform campaigns through the parallel
    ``CampaignRunner`` and print per-shard timing/calibration counters.
    ``--faults`` injects seeded rig faults (e.g.
    ``--faults "dropout=0.05,run_failure=0.1,seed=7"``; see
    docs/FAULTS.md) and reports retries, rejected observations, and
    quarantined cells; ``--max-retries`` and ``--shard-timeout``
    bound the resilient execution.  ``--trace out.jsonl`` records
    per-shard telemetry spans (calibrate/engine/measure/fit), writes
    them as JSONL (schema in docs/TELEMETRY.md), and prints a
    flame-style wall-time breakdown; ``--progress`` prints a live
    per-shard line as each completes.  ``--cache DIR`` (or the
    ``ARCHLINE_CACHE`` environment variable) makes the campaign
    incremental through the content-addressed store (docs/CACHE.md):
    unchanged shards replay bit-identically from disk; ``--refresh``
    recomputes and republishes, ``--no-cache`` ignores the environment
    variable.  Example::

        archline campaign gtx-titan nuc-gpu --quick --workers 2 \\
            --cache ~/.archline-cache --trace trace.jsonl --progress
``archline cache stats|gc|verify [--dir DIR]``
    Inspect and maintain the campaign store: entry counts and sizes,
    reclamation of stale-engine entries, and integrity verification
    (docs/CACHE.md).
``archline serve [--port P] [--max-batch N] [--linger-us US]``
    Run the async batched prediction service (docs/SERVE.md): POST
    JSON queries to ``/predict`` and concurrent requests coalesce into
    vectorised engine batches; ``/stats`` exposes batching, theta-hat
    and store counters; ``--trace out.jsonl`` writes the run's
    telemetry spans on shutdown.  ``--cache DIR`` (or
    ``$ARCHLINE_CACHE``) backs ``"theta": "fitted"`` queries with the
    content-addressed campaign store.
``archline fleet --workload SPEC.json [--power-budget W] [...]``
    Solve the fleet/procurement problem (docs/FLEET.md): given a
    workload histogram, a rack power budget and per-node prices, pick
    the integer platform mix minimising energy-to-solution or cost.
    ``--theta fitted`` prices the mix with campaign-fitted theta-hat
    (through the campaign store when ``--cache``/``$ARCHLINE_CACHE``
    is set); ``--json out.json`` writes the bit-deterministic machine
    report.
``archline lint [PATH ...]``
    Run the repo's AST-based static-analysis rules (determinism,
    pool picklability, fault-exception hygiene, float equality, unit
    discipline, telemetry hygiene; docs/LINT.md) over ``src`` or the
    given paths.  Exit code 0 = clean, 1 = findings, 2 = usage error.
``archline audit``
    Check the paper's own numbers against each other (Table I vs the
    Fig. 5 annotations, etc.).
``archline export [--outdir DIR]``
    Write every regenerated table/figure's data as CSV.
``archline roofline <platform-id> [--metric M]``
    ASCII roofline chart (capped vs uncapped) for one platform.
``archline compare <a> <b> [--metric M]``
    ASCII comparison chart for two platforms (Fig. 1 style).
``archline uncertainty <platform-id> [--seeds N]``
    Seed-bootstrap dispersion of the fitted constants.
``archline algorithms [--platform P]``
    Derived intensities of classic kernels and the best block for each.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

# Only the modules ``build_parser`` needs load here; each command
# imports its own, so a process pays for the command it runs.
from .experiments.registry import EXPERIMENTS, run_all, run_experiment
from .flags import nonnegative_int, positive_float, positive_int, seed_count
from .machine.platforms import PLATFORM_IDS, all_platforms, platform

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``archline`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="archline",
        description="Reproduction of 'Algorithmic time, energy, and power "
        "on candidate HPC compute building blocks' (IPDPS 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and platforms")

    run_p = sub.add_parser("run", help="run experiment reproductions")
    run_p.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS),
        metavar="EXPERIMENT",
        help=f"one of: {', '.join(sorted(EXPERIMENTS))}",
    )
    run_p.add_argument("--seed", type=nonnegative_int, default=2014)
    run_p.add_argument(
        "--quick", action="store_true", help="smaller campaigns (smoke run)"
    )
    run_p.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        metavar="N",
        help="run campaigns through the parallel CampaignRunner with N "
        "worker processes (default: 1, inline; the fits do not depend "
        "on N)",
    )

    sub.add_parser("all", help="run every experiment")

    plat_p = sub.add_parser("platform", help="describe a platform")
    plat_p.add_argument("platform_id", choices=list(PLATFORM_IDS))

    bench_p = sub.add_parser(
        "bench",
        help="run the microbenchmark campaign on one platform, or the "
        "perf-trajectory suite with --trajectory",
    )
    bench_p.add_argument(
        "platform_id",
        nargs="?",
        choices=list(PLATFORM_IDS),
        help="platform to fit (omit with --trajectory)",
    )
    bench_p.add_argument("--seed", type=nonnegative_int, default=2014)
    bench_p.add_argument(
        "--trajectory",
        action="store_true",
        help="run the fixed perf-trajectory suite and write "
        "BENCH_campaign.json (docs/BENCHMARKS.md)",
    )
    bench_p.add_argument(
        "--check",
        action="store_true",
        help="with --trajectory: compare against the committed "
        "baseline; exit 1 on wall-time regression",
    )
    bench_p.add_argument(
        "--update",
        action="store_true",
        help="with --trajectory: overwrite the committed baseline",
    )
    bench_p.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="with --trajectory: where to write the fresh report",
    )
    bench_p.add_argument(
        "--quick",
        action="store_true",
        help="with --trajectory: shrunken campaigns (smoke only)",
    )

    camp_p = sub.add_parser(
        "campaign",
        help="run per-platform campaigns in parallel and report counters",
    )
    # No ``choices`` here: argparse validates the empty default of a
    # ``nargs="*"`` positional against them.  Checked in the handler.
    camp_p.add_argument(
        "platform_ids",
        nargs="*",
        metavar="PLATFORM",
        help=f"platforms to shard over (default: all); "
        f"one of: {', '.join(PLATFORM_IDS)}",
    )
    camp_p.add_argument("--seed", type=nonnegative_int, default=2014)
    camp_p.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        metavar="N",
        help="process-pool width (default: one per platform, capped at "
        "the CPU count)",
    )
    camp_p.add_argument(
        "--quick", action="store_true", help="smaller campaigns (smoke run)"
    )
    camp_p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject seeded rig faults, e.g. "
        "'dropout=0.05,jitter=1e-4,run_failure=0.1,seed=7' "
        "(fields: dropout, jitter, desync, desync_prob, saturation, "
        "nan, run_failure, seed; see docs/FAULTS.md)",
    )
    camp_p.add_argument(
        "--max-retries",
        type=nonnegative_int,
        default=2,
        metavar="N",
        help="per-run retry budget before a cell is quarantined "
        "(default 2; only used with --faults)",
    )
    camp_p.add_argument(
        "--shard-timeout",
        type=positive_float,
        default=None,
        metavar="S",
        help="wall-clock deadline in seconds for the whole campaign; "
        "shards still unfinished are reported as 'timeout'",
    )
    camp_p.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSONL",
        help="record per-shard telemetry spans, write them as JSONL to "
        "this path, and print a wall-time breakdown (schema: "
        "docs/TELEMETRY.md); e.g. --trace trace.jsonl",
    )
    camp_p.add_argument(
        "--progress",
        action="store_true",
        help="print a live per-shard progress line to stderr as each "
        "shard completes",
    )
    camp_p.add_argument(
        "--cache",
        dest="cache_dir",
        default=None,
        metavar="DIR",
        help="content-addressed store directory (default: $ARCHLINE_CACHE "
        "if set); unchanged shards replay bit-identically from it "
        "(docs/CACHE.md)",
    )
    camp_p.add_argument(
        "--no-cache",
        action="store_true",
        help="run uncached even when $ARCHLINE_CACHE is set",
    )
    camp_p.add_argument(
        "--refresh",
        action="store_true",
        help="with a cache: skip lookups, recompute every shard and "
        "republish",
    )

    from .lint.cli import build_lint_parser

    build_lint_parser(sub)

    from .store.cli import build_cache_parser

    build_cache_parser(sub)

    from .serve.cli import build_serve_parser

    build_serve_parser(sub)

    from .fleet.cli import build_fleet_parser

    build_fleet_parser(sub)

    sub.add_parser(
        "audit", help="internal-consistency audit of the paper's own numbers"
    )

    roof_p = sub.add_parser(
        "roofline", help="ASCII roofline chart for one platform"
    )
    roof_p.add_argument("platform_id", choices=list(PLATFORM_IDS))
    roof_p.add_argument(
        "--metric",
        choices=["performance", "flops_per_joule", "power"],
        default="performance",
    )

    cmp_p = sub.add_parser(
        "compare", help="ASCII chart comparing two platforms (Fig. 1 style)"
    )
    cmp_p.add_argument("a", choices=list(PLATFORM_IDS))
    cmp_p.add_argument("b", choices=list(PLATFORM_IDS))
    cmp_p.add_argument(
        "--metric",
        choices=["performance", "flops_per_joule", "power"],
        default="flops_per_joule",
    )

    export_p = sub.add_parser(
        "export", help="export every table/figure's data as CSV"
    )
    export_p.add_argument(
        "--outdir", default="artifacts", help="output directory (default: artifacts/)"
    )

    uq_p = sub.add_parser(
        "uncertainty", help="seed-bootstrap uncertainty of one platform's fit"
    )
    uq_p.add_argument("platform_id", choices=list(PLATFORM_IDS))
    uq_p.add_argument("--seeds", type=seed_count, default=5)

    alg_p = sub.add_parser(
        "algorithms", help="abstract-algorithm intensities and best platforms"
    )
    alg_p.add_argument(
        "--platform",
        dest="platform_id",
        choices=list(PLATFORM_IDS),
        default="gtx-titan",
        help="platform whose cache size sets Z (default gtx-titan)",
    )
    return parser


def _cmd_list() -> str:
    from .report.tables import Table, fmt_si

    exp_table = Table(
        columns=["id", "paper artifact", "title"], title="Experiments", align="lll"
    )
    for spec in EXPERIMENTS.values():
        exp_table.add_row(spec.experiment_id, spec.paper_artifact, spec.title)
    plat_table = Table(
        columns=["id", "kind", "sustained", "bandwidth", "pi1", "dpi"],
        title="Platforms",
    )
    for pid, cfg in all_platforms().items():
        plat_table.add_row(
            pid,
            cfg.kind,
            fmt_si(cfg.truth.peak_flops, "flop/s"),
            fmt_si(cfg.truth.peak_bandwidth, "B/s"),
            fmt_si(cfg.truth.pi1, "W"),
            fmt_si(cfg.truth.delta_pi, "W"),
        )
    return exp_table.render() + "\n\n" + plat_table.render()


def _cmd_platform(platform_id: str) -> str:
    from .core.balance import summarise_balance
    from .report.tables import Table, fmt_num, fmt_pct, fmt_si

    cfg = platform(platform_id)
    truth = cfg.truth
    balance = summarise_balance(truth)
    table = Table(columns=["quantity", "value"], title=cfg.describe(), align="ll")
    rows = [
        ("sustained peak (single)", fmt_si(truth.peak_flops, "flop/s")),
        ("sustained bandwidth", fmt_si(truth.peak_bandwidth, "B/s")),
        ("eps_flop", fmt_si(truth.eps_flop, "J/flop")),
        ("eps_mem", fmt_si(truth.eps_mem, "J/B")),
        ("pi1 (constant power)", fmt_si(truth.pi1, "W")),
        ("delta_pi (usable power)", fmt_si(truth.delta_pi, "W")),
        ("pi1 fraction", fmt_pct(truth.constant_power_fraction)),
        ("time balance B_tau", f"{balance.time_balance:.3g} flop/B"),
        ("energy balance B_eps", f"{balance.energy_balance:.3g} flop/B"),
        ("cap-bound interval", f"[{fmt_num(balance.cap_lower)}, "
                               f"{fmt_num(balance.cap_upper)}] flop/B"),
        ("ridge power deficit", f"{balance.ridge_power_deficit:.3g}"),
        ("peak energy-efficiency", fmt_si(truth.peak_flops_per_joule, "flop/J")),
        ("streaming energy", fmt_si(truth.energy_per_byte_memory_bound, "J/B")),
    ]
    for level in truth.caches:
        rows.append(
            (f"cache {level.name}",
             f"{fmt_si(level.eps_byte, 'J/B')} @ {fmt_si(level.bandwidth, 'B/s')}")
        )
    if truth.random is not None:
        rows.append(
            ("random access",
             f"{fmt_si(truth.random.eps_access, 'J/acc')} @ "
             f"{fmt_si(truth.random.rate, 'acc/s')}")
        )
    for row in rows:
        table.add_row(*row)
    return table.render()


def _cmd_bench(platform_id: str, seed: int) -> str:
    from .microbench.campaign import fit_platform
    from .microbench.suite import CampaignSettings
    from .report.tables import Table, fmt_si

    fit = fit_platform(platform_id, CampaignSettings(seed=seed))
    truth = fit.truth
    fitted = fit.capped.params
    table = Table(
        columns=["parameter", "fitted", "ground truth", "deviation"],
        title=f"Campaign fit for {truth.name} "
        f"({fit.campaign.n_runs} runs, seed {seed})",
    )
    for label, f_val, t_val in (
        ("tau_flop (s/flop)", fitted.tau_flop, truth.tau_flop),
        ("tau_mem (s/B)", fitted.tau_mem, truth.tau_mem),
        ("eps_flop (J/flop)", fitted.eps_flop, truth.eps_flop),
        ("eps_mem (J/B)", fitted.eps_mem, truth.eps_mem),
        ("pi1 (W)", fitted.pi1, truth.pi1),
        ("delta_pi (W)", fitted.delta_pi, truth.delta_pi),
    ):
        dev = (f_val - t_val) / t_val
        table.add_row(label, fmt_si(f_val), fmt_si(t_val), f"{dev:+.1%}")
    return table.render()


def _cmd_bench_trajectory(args) -> int:
    """``archline bench --trajectory``: run the fixed perf suite and
    write (or gate) ``BENCH_campaign.json``; see docs/BENCHMARKS.md."""
    from pathlib import Path

    from .trajectory.compare import compare_reports
    from .trajectory.runner import (
        DEFAULT_REPORT_NAME,
        load_report,
        run_suite,
        write_report,
    )

    if args.check and args.update:
        print("--check and --update are mutually exclusive", file=sys.stderr)
        return 2
    baseline_path = Path(DEFAULT_REPORT_NAME)

    def progress(name: str, metrics: dict) -> None:
        print(
            f"  {name}: {metrics['wall_seconds']:.3f}s",
            file=sys.stderr,
            flush=True,
        )

    report = run_suite(seed=args.seed, quick=args.quick, progress=progress)
    output = args.output
    if output is None:
        output = (
            baseline_path.with_suffix(baseline_path.suffix + ".new")
            if args.check
            else baseline_path
        )
    write_report(output, report)
    print(f"wrote {output}")
    if not args.check:
        return 0
    if not baseline_path.exists():
        print(
            f"no baseline at {baseline_path}; commit one with --update",
            file=sys.stderr,
        )
        return 1
    result = compare_reports(report, load_report(baseline_path))
    print(result.describe())
    return 0 if result.ok else 1


def _progress_printer(total: int):
    """A ``CampaignRunner`` progress callback that prints one live line
    per completed shard to stderr (stdout stays machine-parseable)."""
    done_count = [0]

    def progress(shard) -> None:
        done_count[0] += 1
        print(
            f"[{done_count[0]}/{total}] {shard.platform_id}: "
            f"{shard.status} ({shard.n_runs} runs, "
            f"{shard.wall_seconds:.2f}s)",
            file=sys.stderr,
            flush=True,
        )

    return progress


def _cmd_campaign(
    platform_ids: list[str],
    seed: int,
    workers: int | None,
    quick: bool,
    faults_spec: str | None = None,
    max_retries: int = 2,
    shard_timeout: float | None = None,
    trace_path: str | None = None,
    show_progress: bool = False,
    cache_dir: str | None = None,
    no_cache: bool = False,
    cache_refresh: bool = False,
) -> str:
    from .faults.plan import FaultPlan
    from .microbench.campaign import CampaignRunner
    from .microbench.suite import CampaignSettings
    from .report.tables import Table, fmt_pct
    from .store.cli import resolve_cache_dir

    unknown = [p for p in platform_ids if p not in PLATFORM_IDS]
    if unknown:
        raise SystemExit(
            f"archline campaign: unknown platform(s) {', '.join(unknown)}; "
            f"choose from {', '.join(PLATFORM_IDS)}"
        )
    try:
        plan = None if faults_spec is None else FaultPlan.parse(faults_spec)
        settings = CampaignSettings(
            seed=seed, faults=plan, max_retries=max_retries
        )
    except ValueError as err:
        raise SystemExit(f"archline campaign: bad --faults spec: {err}")
    if no_cache:
        if cache_dir is not None:
            raise SystemExit(
                "archline campaign: --cache and --no-cache are mutually "
                "exclusive"
            )
        cache = None
    else:
        cache = resolve_cache_dir(cache_dir)
    if cache_refresh and cache is None:
        raise SystemExit(
            "archline campaign: --refresh needs a cache (--cache DIR or "
            "$ARCHLINE_CACHE)"
        )
    if quick:
        settings = settings.scaled_down()
    runner = CampaignRunner(
        tuple(platform_ids) if platform_ids else None,
        settings,
        max_workers=workers,
        shard_timeout=shard_timeout,
        trace=trace_path is not None,
        cache_dir=cache,
        cache_refresh=cache_refresh,
    )
    progress = (
        _progress_printer(len(runner.platform_ids)) if show_progress else None
    )
    fits = runner.run(progress=progress)
    report = runner.report
    assert report is not None
    resilient = plan is not None or not report.ok
    columns = ["platform", "runs", "cal hit rate", "shard time",
               "tau_flop dev"]
    if resilient:
        columns[1:1] = ["status", "failed", "retries", "quar"]
    title = (
        f"Campaign: {len(fits)} platforms, {report.workers} workers, "
        f"{report.wall_seconds:.2f}s wall "
        f"(efficiency {fmt_pct(report.parallel_efficiency)})"
    )
    if plan is not None:
        title += f"\nfaults: {plan.describe()}"
    table = Table(columns=columns, title=title)
    for shard in report.shards:
        fit = fits.get(shard.platform_id)
        if fit is None:
            dev = "n/a"
        else:
            rel = (
                fit.capped.params.tau_flop - fit.truth.tau_flop
            ) / fit.truth.tau_flop
            dev = f"{rel:+.1%}"
        row = [
            shard.platform_id,
            str(shard.n_runs),
            fmt_pct(shard.calibration_hit_rate),
            f"{shard.wall_seconds:.2f}s",
            dev,
        ]
        if resilient:
            row[1:1] = [
                shard.status,
                str(shard.runs_failed),
                str(shard.retries),
                str(len(shard.quarantined)),
            ]
        table.add_row(*row)
    out = table.render()
    if cache is not None:
        out += (
            f"\n\ncache {cache}: {report.cache_hits} hits, "
            f"{report.cache_misses} misses "
            f"(hit rate {fmt_pct(report.cache_hit_rate)})"
        )
        if report.cache_stale:
            out += f", {report.cache_stale} stale entries evicted"
    if resilient:
        out += (
            f"\n\nattempted {report.runs_attempted} runs: "
            f"{report.runs_failed} failed ({report.retries} retried), "
            f"{report.rejected} rejected, {report.runs_skipped} skipped, "
            f"{len(report.quarantined_cells)} cells quarantined\n"
            + report.describe_losses()
        )
    if runner.progress_errors:
        out += "\n\nprogress callback errors:\n" + "\n".join(
            runner.progress_errors
        )
    if trace_path is not None:
        from .telemetry.jsonl import write_trace
        from .telemetry.summary import render_summary

        lines = write_trace(trace_path, report)
        out += (
            f"\n\ntrace: {lines} records ({report.trace_bytes} span bytes) "
            f"-> {trace_path}\n\n" + render_summary(report)
        )
    return out


_METRIC_UNITS = {
    "performance": "flop/s",
    "flops_per_joule": "flop/J",
    "power": "W",
}


def _metric_plot(metric: str, title: str):
    from .report.ascii_plot import AsciiPlot

    return AsciiPlot(title=title, y_label=_METRIC_UNITS[metric])


def _cmd_roofline(platform_id: str, metric: str) -> str:
    from .core.rooflines import intensity_grid, metric_function

    cfg = platform(platform_id)
    grid = intensity_grid(1 / 8, 512.0, 3)
    fn = metric_function(metric)
    plot = _metric_plot(
        metric, f"{cfg.name}: {metric} vs intensity (capped vs uncapped)"
    )
    plot.add_series("capped", grid, fn(cfg.truth, grid, capped=True))
    plot.add_series("uncapped", grid, fn(cfg.truth, grid, capped=False))
    return plot.render()


def _cmd_compare(a: str, b: str, metric: str) -> str:
    from .core.rooflines import intensity_grid, metric_function

    cfg_a, cfg_b = platform(a), platform(b)
    grid = intensity_grid(1 / 8, 512.0, 3)
    fn = metric_function(metric)
    plot = _metric_plot(metric, f"{cfg_a.name} vs {cfg_b.name}: {metric}")
    plot.add_series(a, grid, fn(cfg_a.truth, grid))
    plot.add_series(b, grid, fn(cfg_b.truth, grid))
    return plot.render()


def _cmd_algorithms(platform_id: str) -> str:
    from .apps.algorithms import (
        fft,
        matrix_multiply,
        sort_mergesort,
        spmv_csr,
        stencil,
        stream_triad,
    )
    from .apps.analysis import best_platform, fast_memory_capacity
    from .report.tables import Table, fmt_num

    cfg = platform(platform_id)
    Z = fast_memory_capacity(cfg)
    catalogue = {
        "matmul (n=8192)": (matrix_multiply(), 8192),
        "fft (n=2^24)": (fft(), 2 ** 24),
        "stencil (n=1e8)": (stencil(), 1e8),
        "triad (n=1e8)": (stream_triad(), 1e8),
        "spmv (n=1e7)": (spmv_csr(), 1e7),
        "mergesort (n=1e8)": (sort_mergesort(), 1e8),
    }
    table = Table(
        columns=["algorithm", f"I on {platform_id}", "best platform",
                 "work/J there"],
        title=f"Abstract algorithms (Z = {Z / 1024:.0f} KiB on {platform_id})",
    )
    for label, (alg, n) in catalogue.items():
        best_pid, result = best_platform(alg, n, all_platforms())
        table.add_row(
            label,
            fmt_num(alg.intensity(n, Z)),
            best_pid,
            f"{result.work_per_joule / 1e9:.2f} G{alg.work_unit}/J",
        )
    return table.render()


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    A reader that closes stdout early (``archline list | head -1``)
    ends the process quietly with exit code 1, by the SIGPIPE recipe of
    the Python docs, instead of with a ``BrokenPipeError`` traceback.
    """
    try:
        code = _dispatch(build_parser().parse_args(argv))
        # Flush inside the try, so a closed pipe raises here and not
        # at interpreter shutdown.
        sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, and the interpreter's own final flush, go to
        # devnull instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed subcommand; returns its exit code."""
    if args.command == "list":
        print(_cmd_list())
        return 0
    if args.command == "platform":
        print(_cmd_platform(args.platform_id))
        return 0
    if args.command == "bench":
        if args.trajectory:
            return _cmd_bench_trajectory(args)
        if args.platform_id is None:
            print(
                "bench: platform_id is required without --trajectory",
                file=sys.stderr,
            )
            return 2
        print(_cmd_bench(args.platform_id, args.seed))
        return 0
    if args.command == "campaign":
        print(
            _cmd_campaign(
                args.platform_ids,
                args.seed,
                args.workers,
                args.quick,
                faults_spec=args.faults,
                max_retries=args.max_retries,
                shard_timeout=args.shard_timeout,
                trace_path=args.trace,
                show_progress=args.progress,
                cache_dir=args.cache_dir,
                no_cache=args.no_cache,
                cache_refresh=args.refresh,
            )
        )
        return 0
    if args.command == "cache":
        from .store.cli import run_cache

        return run_cache(args)
    if args.command == "serve":
        from .serve.cli import run_serve

        return run_serve(args)
    if args.command == "fleet":
        from .fleet.cli import run_fleet

        return run_fleet(args)
    if args.command == "lint":
        from .lint.cli import run_lint

        return run_lint(args)
    if args.command == "audit":
        from .experiments.audit import render_audit

        print(render_audit())
        return 0
    if args.command == "roofline":
        print(_cmd_roofline(args.platform_id, args.metric))
        return 0
    if args.command == "compare":
        print(_cmd_compare(args.a, args.b, args.metric))
        return 0
    if args.command == "uncertainty":
        from .experiments.uncertainty import quantify

        result = quantify(args.platform_id, n_seeds=args.seeds)
        print(result.to_table().render())
        return 0
    if args.command == "algorithms":
        print(_cmd_algorithms(args.platform_id))
        return 0
    if args.command == "export":
        from pathlib import Path

        from .report.export import export_all

        paths = export_all(Path(args.outdir))
        for path in paths:
            print(path)
        return 0
    if args.command == "all":
        results = run_all()
        failures = 0
        for result in results.values():
            print(result.to_text())
            print()
            failures += result.n_claims - result.n_passing
        print(f"total diverging claims: {failures}")
        return 0
    if args.command == "run":
        from .microbench.suite import CampaignSettings

        settings = CampaignSettings(seed=args.seed)
        if args.quick:
            settings = settings.scaled_down()
        fits = None
        if any(EXPERIMENTS[eid].needs_campaigns for eid in args.experiments):
            from .experiments.common import run_all_fits

            fits = run_all_fits(settings, max_workers=args.workers)
        ok = True
        for eid in args.experiments:
            result = run_experiment(eid, fits=fits, settings=settings)
            print(result.to_text())
            print()
            ok = ok and result.n_passing == result.n_claims
        return 0 if ok else 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

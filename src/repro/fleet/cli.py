"""The ``archline fleet`` subcommand: solve a procurement problem.

Reads a workload spec (docs/FLEET.md), evaluates every bin on every
requested platform under the capped energy-roofline model, and solves
for the integer node mix minimising energy-to-solution or procurement
cost under rack-power and cost budgets.  Prints a human table to
stdout; ``--json`` writes the bit-deterministic machine report (no
wall times -- two runs with the same inputs produce byte-identical
files, which CI checks), and ``--trace`` writes telemetry spans
(``fleet_evaluate``/``fleet_solve``) as campaign-schema JSONL under
the pseudo-shard name ``"fleet"``.

``--theta fitted`` resolves every platform's parameters from its
microbenchmark campaign via the shared
:func:`~repro.experiments.common.fitted_platform_config` path -- the
same one ``archline serve`` uses -- so ``--cache DIR`` (or
``$ARCHLINE_CACHE``) makes repeated solves replay campaigns
bit-identically from the content-addressed store; the store's
hit/miss/put counters land in the JSON report.

Exit codes: 0 solved, 1 infeasible (or search gave up), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from ..flags import nonnegative_int, positive_float, positive_int
from ..machine.platforms import PLATFORM_IDS, platform
from ..store.cli import CACHE_DIR_ENV, resolve_cache_dir

__all__ = ["build_fleet_parser", "run_fleet"]


def build_fleet_parser(
    parent: argparse._SubParsersAction,
) -> argparse.ArgumentParser:
    """Attach the ``fleet`` subcommand to the main parser."""
    parser = parent.add_parser(
        "fleet",
        help="solve the fleet/procurement mix under power & cost budgets",
        description="Pick the integer platform mix covering a workload "
        "histogram at minimum energy-to-solution or cost, under a rack "
        "power budget (governor-capped node draw) and a procurement "
        "budget (docs/FLEET.md).",
    )
    parser.add_argument(
        "--workload",
        required=True,
        metavar="SPEC.JSON",
        help="workload spec file (docs/FLEET.md); bins of (algorithm, n) "
        "or raw (W, Q) demand with job counts",
    )
    parser.add_argument(
        "--platforms",
        nargs="+",
        choices=list(PLATFORM_IDS),
        default=None,
        metavar="PLATFORM",
        help="candidate platforms (default: all twelve)",
    )
    parser.add_argument(
        "--objective",
        choices=["energy", "cost"],
        default="energy",
        help="minimise energy-to-solution or procurement cost "
        "(default energy)",
    )
    parser.add_argument(
        "--power-budget",
        type=positive_float,
        default=None,
        metavar="W",
        help="rack power budget in watts, summed over governor-capped "
        "per-node draw (default: unlimited)",
    )
    parser.add_argument(
        "--cost-budget",
        type=positive_float,
        default=None,
        metavar="C",
        help="procurement budget in catalogue currency units "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--horizon",
        type=positive_float,
        default=None,
        metavar="S",
        help="planning window in seconds (default: the workload's, "
        "usually 3600)",
    )
    parser.add_argument(
        "--costs",
        default=None,
        metavar="COSTS.JSON",
        help="unit-cost/supply overrides per platform id "
        "(default: the built-in illustrative catalogue)",
    )
    parser.add_argument(
        "--theta",
        choices=["truth", "fitted"],
        default="truth",
        help="machine parameters: Table I ground truth, or theta-hat "
        "fitted from each platform's microbenchmark campaign "
        "(default truth)",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="force the exhaustive oracle solver (small instances only; "
        "default: LP relaxation + greedy + capped polish)",
    )
    parser.add_argument(
        "--states",
        type=positive_int,
        default=None,
        metavar="N",
        help="search-state cap for the exact/polish phase "
        "(defaults: 2,000,000 exact, 200,000 polish)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="OUT.JSON",
        help="write the machine-readable report (bit-deterministic for "
        "fixed inputs) to this path",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSONL",
        help="write fleet_evaluate/fleet_solve telemetry spans as JSONL "
        "(schema: docs/TELEMETRY.md)",
    )
    parser.add_argument(
        "--cache",
        dest="cache_dir",
        default=None,
        metavar="DIR",
        help="campaign store for --theta fitted (default: "
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
        help="shrunken campaigns for --theta fitted (smoke runs)",
    )
    parser.add_argument("--seed", type=nonnegative_int, default=2014)
    return parser


def _usage(message: str) -> int:
    print(f"archline fleet: {message}", file=sys.stderr)
    return 2


def run_fleet(args: argparse.Namespace) -> int:
    """Solve as configured by the parsed arguments."""
    from ..telemetry.recorder import NULL_RECORDER, TraceRecorder
    from .evaluate import evaluate_fleet
    from .offers import default_offer, parse_cost_overrides
    from .report import fleet_report, render_fleet
    from .solver import FleetInstance, solve, solve_exact
    from .workload import WorkloadSpec

    try:
        workload = WorkloadSpec.from_json(
            Path(args.workload).read_text(encoding="utf-8")
        )
    except OSError as err:
        return _usage(f"cannot read --workload: {err}")
    except ValueError as err:
        return _usage(f"bad workload spec: {err}")
    if args.horizon is not None:
        workload = replace(workload, horizon=args.horizon)

    platform_ids = tuple(sorted(set(args.platforms or PLATFORM_IDS)))
    offers = {pid: default_offer(pid) for pid in platform_ids}
    if args.costs is not None:
        try:
            overrides = parse_cost_overrides(
                Path(args.costs).read_text(encoding="utf-8")
            )
        except OSError as err:
            return _usage(f"cannot read --costs: {err}")
        except ValueError as err:
            return _usage(f"bad costs document: {err}")
        unknown = sorted(set(overrides) - set(PLATFORM_IDS))
        if unknown:
            return _usage(
                f"--costs names unknown platform(s): {', '.join(unknown)}"
            )
        offers.update(
            (pid, offer)
            for pid, offer in overrides.items()
            if pid in offers
        )

    if args.no_cache and args.cache_dir is not None:
        return _usage("--cache and --no-cache are mutually exclusive")
    cache_dir = None if args.no_cache else resolve_cache_dir(args.cache_dir)
    if args.refresh and cache_dir is None:
        return _usage(
            f"--refresh needs a cache (--cache DIR or ${CACHE_DIR_ENV})"
        )
    store = None
    if cache_dir is not None and args.theta == "fitted":
        from ..store.store import CampaignStore

        store = CampaignStore(cache_dir)

    recorder = TraceRecorder() if args.trace else NULL_RECORDER
    started = time.perf_counter()

    if args.theta == "truth":
        configs = {pid: platform(pid) for pid in platform_ids}
    else:
        # Only the fitted path loads the campaign, fit and store code.
        from ..experiments.common import fitted_platform_config
        from ..microbench.suite import CampaignSettings

        settings = CampaignSettings(seed=args.seed)
        if args.quick_fit:
            settings = settings.scaled_down()
        configs = {
            pid: fitted_platform_config(
                pid,
                settings,
                store=store,
                refresh=args.refresh,
                recorder=recorder,
            )
            for pid in platform_ids
        }

    matrix = evaluate_fleet(workload, configs, recorder=recorder)
    instance = FleetInstance.from_matrix(
        matrix,
        workload,
        offers,
        power_budget=(
            math.inf if args.power_budget is None else args.power_budget
        ),
        cost_budget=(
            math.inf if args.cost_budget is None else args.cost_budget
        ),
        objective=args.objective,
    )
    if args.exact:
        solution = solve_exact(
            instance,
            state_limit=args.states or 2_000_000,
            recorder=recorder,
        )
    else:
        solution = solve(
            instance,
            polish_states=args.states or 200_000,
            recorder=recorder,
        )

    print(render_fleet(instance, solution, matrix, theta=args.theta))
    report = fleet_report(
        workload,
        instance,
        solution,
        matrix,
        offers,
        theta=args.theta,
        store=store,
    )
    if args.json_path is not None:
        Path(args.json_path).write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"report -> {args.json_path}", file=sys.stderr)
    if args.trace is not None:
        from ..telemetry.jsonl import write_recorder_trace

        wall = time.perf_counter() - started
        lines = write_recorder_trace(
            args.trace, "fleet", recorder, wall_seconds=wall, seed=args.seed
        )
        print(
            f"trace: {lines} records -> {args.trace}",
            file=sys.stderr,
            flush=True,
        )
    return 0 if solution.solved else 1

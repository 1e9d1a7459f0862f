"""Run the perf-trajectory suite; write/check ``BENCH_campaign.json``.

Usage (from the repo root)::

    python benchmarks/trajectory/run.py                # measure + write
    python benchmarks/trajectory/run.py --check        # gate vs baseline
    python benchmarks/trajectory/run.py --update       # refresh baseline
    python benchmarks/trajectory/run.py --check --threshold 0.10

``--check`` measures a fresh report, compares it against the committed
baseline (``BENCH_campaign.json`` at the repo root) and exits 1 on any
wall-time regression beyond the threshold; the fresh report is written
to ``--output`` (default: the baseline path plus ``.new`` when
checking) so CI can upload it as an artifact either way.  ``--update``
overwrites the committed baseline -- the reviewed way to accept a
slowdown or record a speedup.

This is a thin wrapper over :mod:`repro.trajectory`.  Methodology:
``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.trajectory import (  # noqa: E402  (path bootstrap above)
    DEFAULT_REPORT_NAME,
    compare_reports,
    load_report,
    run_suite,
    write_report,
)
from repro.trajectory.compare import (  # noqa: E402
    DEFAULT_MIN_DELTA,
    DEFAULT_THRESHOLD,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/trajectory/run.py",
        description="Measure the perf-trajectory suite and write or "
        "gate BENCH_campaign.json.",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline; exit 1 on "
        "wall-time regression",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="overwrite the committed baseline with this measurement",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / DEFAULT_REPORT_NAME,
        help=f"baseline path (default: {DEFAULT_REPORT_NAME} at the "
        f"repo root)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the fresh report (default: the baseline "
        "path, or '<baseline>.new' with --check)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative wall-time regression threshold "
        f"(default {DEFAULT_THRESHOLD:.0%})",
    )
    parser.add_argument(
        "--min-delta",
        type=float,
        default=DEFAULT_MIN_DELTA,
        help="absolute slack in seconds before the relative threshold "
        f"applies (default {DEFAULT_MIN_DELTA}s)",
    )
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrunken campaigns (smoke only; never commit a quick "
        "baseline)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.check and args.update:
        print("--check and --update are mutually exclusive", file=sys.stderr)
        return 2

    def progress(name: str, metrics: dict) -> None:
        print(
            f"  {name}: {metrics['wall_seconds']:.3f}s "
            f"({metrics.get('n_runs', 0):.0f} runs)",
            flush=True,
        )

    print("running trajectory suite...", flush=True)
    report = run_suite(seed=args.seed, quick=args.quick, progress=progress)

    output = args.output
    if output is None:
        output = (
            args.baseline.with_suffix(args.baseline.suffix + ".new")
            if args.check
            else args.baseline
        )
    write_report(output, report)
    print(f"wrote {output}")

    if not args.check:
        return 0
    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; commit one with --update",
            file=sys.stderr,
        )
        return 1
    baseline = load_report(args.baseline)
    result = compare_reports(
        report,
        baseline,
        threshold=args.threshold,
        min_delta=args.min_delta,
    )
    print(result.describe())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())

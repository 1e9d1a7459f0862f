"""Run one workload of the end-to-end benchmark and print its result.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload campaign_cold --seed 1 --seconds 40 --trace 0

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``,
measured with tracing off; ``--trace 1`` reports every per-layer metric
of it, from traced runs of the same workload.  A per-layer metric that
names a layer the workload never runs reads 0.  The last stdout line is
the result object (``correct``, ``attempted``, ``failed``, ``metrics``);
the line before it records the environment.  Temporary stores, traces
and child output live under ``.e2ebench-work/`` in the checkout and are
removed on every exit path.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("campaign_cold", "serve_fitted", "fleet_solve")


def _environment(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _declared(trace: bool) -> dict[str, str]:
    """``{metric: unit}`` of the manifest's end-to-end or per-layer list."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def _on_sigterm(signum, frame) -> None:
    # Unwind through every ``finally`` so spawned servers and
    # temporary stores are cleaned up.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(
            f"e2ebench: no program source under {ROOT / 'src'}; run it from "
            f"the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    declared = _declared(bool(args.trace))
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    signal.signal(signal.SIGTERM, _on_sigterm)

    from e2ebench.result import Run

    workload = importlib.import_module(f"e2ebench.{args.workload}")
    work_root = ROOT / ".e2ebench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    run = Run()
    try:
        workload.measure(
            run,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            work=work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it.
    measured = run.metrics()
    own = workload.PER_LAYER if args.trace else declared
    missing = sorted(set(own) - set(measured))
    if missing:
        print(f"e2ebench: no valid sample of {missing}", file=sys.stderr)
        return 1
    undeclared = sorted(n for n, m in measured.items() if declared.get(n) != m["unit"])
    if undeclared:
        print(f"e2ebench: not in BENCHMARK.json in that unit: {undeclared}", file=sys.stderr)
        return 1
    metrics = {
        name: measured.get(name, {"value": 0.0, "unit": unit})
        for name, unit in declared.items()
    }
    print(json.dumps({"env": _environment(args)}, sort_keys=True))
    print(run.result_line(metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

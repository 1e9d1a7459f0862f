"""The ``archline lint`` subcommand.

Exit codes follow the usual linter contract:

* ``0`` -- clean (no findings after suppressions and baseline),
* ``1`` -- findings reported,
* ``2`` -- usage error (unknown path, rule code, format, flag
  combination, a malformed baseline file, or ``--changed`` outside a
  git checkout).

Modes
-----
The default mode lints file-by-file (rules ARCH001-ARCH007).
``--project`` additionally builds the whole-program module graph and
runs the cross-module rules (ARCH008-ARCH011); ``--jobs N`` fans the
per-file phase over a process pool and ``--cache DIR`` makes warm
re-runs incremental (see :mod:`repro.lint.project`).  ``--changed``
narrows a per-file run to files the git worktree touches.
``--include-tests`` adds a relaxed per-file pass over ``tests/`` and
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .options import DEFAULT_BASELINE_NAME, FORMATS

#: The relaxed subset ``--include-tests`` runs over tests/ and
#: benchmarks/: hygiene rules that catch real bugs in test code
#: (swallowed faults, mixed units).  Convention rules (telemetry
#: wiring) and the project rules stay src-only -- test doubles and
#: fixtures break them by design, not by accident.
RELAXED_TEST_CODES = ("ARCH003", "ARCH005")

#: Directories the relaxed pass covers when they exist.
TEST_DIRS = ("tests", "benchmarks")


def build_lint_parser(
    parent: argparse._SubParsersAction | None = None,
) -> argparse.ArgumentParser:
    """The lint argument parser; attaches to ``parent`` when given."""
    kwargs = dict(
        description="AST-based static analysis of the repo's determinism, "
        "picklability and unit-discipline invariants (per-file rules "
        "ARCH001-007; whole-program rules ARCH008-011 under --project; "
        "see docs/LINT.md)",
    )
    if parent is None:
        parser = argparse.ArgumentParser(prog="archline lint", **kwargs)
    else:
        parser = parent.add_parser(
            "lint", help="run the archlint static-analysis rules", **kwargs
        )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output format (github emits ::error annotations)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"baseline JSON of grandfathered findings (default: "
        f"./{DEFAULT_BASELINE_NAME} when it exists)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="whole-program mode: build the module graph and run the "
        "cross-module rules ARCH008-ARCH011 as well",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="process-pool width for the per-file phase of --project "
        "(default: 1, in-process)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-addressed summary cache directory for --project; "
        "warm runs replay unchanged files without parsing",
    )
    parser.add_argument(
        "--include-tests",
        action="store_true",
        help="also lint tests/ and benchmarks/ with the relaxed rule "
        f"subset ({', '.join(RELAXED_TEST_CODES)})",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="per-file mode only: lint just the .py files the git "
        "worktree changes relative to HEAD (plus untracked files)",
    )
    return parser


def _resolve_baseline_path(arg: str | None) -> Path | None:
    if arg is not None:
        return Path(arg)
    default = Path(DEFAULT_BASELINE_NAME)
    return default if default.is_file() else None


def _changed_files(paths: Sequence[str]) -> list[str] | None:
    """Worktree-changed ``.py`` files under ``paths``; ``None`` when
    git is unavailable (not a repo, no git binary)."""
    import subprocess

    commands = (
        ["git", "diff", "--name-only", "HEAD", "--", "*.py"],
        ["git", "ls-files", "--others", "--exclude-standard", "--", "*.py"],
    )
    names: set[str] = set()
    for command in commands:
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        names.update(line for line in proc.stdout.splitlines() if line)
    roots = [Path(p).resolve() for p in paths]
    out: list[str] = []
    for name in sorted(names):
        path = Path(name)
        if not path.is_file():  # deleted files still appear in the diff.
            continue
        resolved = path.resolve()
        if any(
            resolved == root or root in resolved.parents for root in roots
        ):
            out.append(name)
    return out


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint subcommand from parsed arguments."""
    from .baseline import filter_baselined, load_baseline, write_baseline
    from .engine import lint_paths
    from .output import render
    from .rules import load_builtin_rules
    from .rules.base import all_rules

    load_builtin_rules()
    if args.list_rules:
        for code, rule_cls in all_rules().items():
            scope = (
                ", ".join(rule_cls.scope) if rule_cls.scope else "all modules"
            )
            print(f"{code} {rule_cls.name}: {rule_cls.description} [{scope}]")
        return 0
    if args.changed and args.project:
        print(
            "archline lint: --changed is a per-file flag; --project is "
            "already incremental via --cache",
            file=sys.stderr,
        )
        return 2
    if (args.jobs != 1 or args.cache is not None) and not args.project:
        print(
            "archline lint: --jobs/--cache require --project",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 1:
        print("archline lint: --jobs must be >= 1", file=sys.stderr)
        return 2

    codes = None
    if args.select:
        codes = [code.strip() for code in args.select.split(",") if code.strip()]

    lint_targets = list(args.paths)
    if args.changed:
        changed = _changed_files(lint_targets)
        if changed is None:
            print(
                "archline lint: --changed needs a git checkout",
                file=sys.stderr,
            )
            return 2
        if not changed:
            print("archline lint: no changed files", file=sys.stderr)
            print(render([], args.format))
            return 0
        lint_targets = changed

    try:
        if args.project:
            from .project.engine import lint_project

            findings, stats = lint_project(
                lint_targets,
                codes,
                jobs=args.jobs,
                cache_dir=args.cache,
            )
            print(stats.render(), file=sys.stderr)
        else:
            findings = lint_paths(lint_targets, codes)
        if args.include_tests:
            extra_dirs = [d for d in TEST_DIRS if Path(d).is_dir()]
            if extra_dirs:
                relaxed = list(RELAXED_TEST_CODES)
                if codes is not None:
                    relaxed = [c for c in relaxed if c in codes]
                if relaxed:
                    findings = sorted(
                        list(findings) + lint_paths(extra_dirs, relaxed)
                    )
    except FileNotFoundError as err:
        print(f"archline lint: no such path: {err.args[0]}", file=sys.stderr)
        return 2
    except KeyError as err:
        known = ", ".join(all_rules())
        print(
            f"archline lint: unknown rule code {err.args[0]!r} "
            f"(known: {known})",
            file=sys.stderr,
        )
        return 2

    baseline_path = _resolve_baseline_path(args.baseline)
    if args.update_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE_NAME)
        count = write_baseline(target, findings)
        print(f"archline lint: baselined {count} finding(s) -> {target}")
        return 0
    if baseline_path is not None:
        try:
            fingerprints = load_baseline(baseline_path)
        except (OSError, ValueError) as err:
            print(f"archline lint: {err}", file=sys.stderr)
            return 2
        findings, matched = filter_baselined(findings, fingerprints)
        if matched:
            print(
                f"archline lint: {matched} finding(s) matched the baseline",
                file=sys.stderr,
            )

    print(render(findings, args.format))
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = build_lint_parser()
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

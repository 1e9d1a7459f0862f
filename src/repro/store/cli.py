"""The ``archline cache`` subcommand: stats, gc, verify.

Maintenance for the content-addressed campaign store
(:class:`~repro.store.store.CampaignStore`; docs/CACHE.md).  The store
directory comes from ``--dir`` or the ``ARCHLINE_CACHE`` environment
variable -- the same variable ``archline campaign`` honours, so one
export serves both commands.

Exit codes: ``0`` success (``verify``: store intact), ``1`` problems
found (``verify`` only), ``2`` usage error (no directory given, or the
path is not a store).
"""

from __future__ import annotations

import argparse
import os
import sys

from ..flags import nonnegative_float

#: Environment variable naming the default store directory.
CACHE_DIR_ENV = "ARCHLINE_CACHE"


def resolve_cache_dir(explicit: str | None) -> str | None:
    """The store directory: an explicit path, else ``$ARCHLINE_CACHE``."""
    if explicit is not None:
        return explicit
    return os.environ.get(CACHE_DIR_ENV) or None


def build_cache_parser(
    parent: argparse._SubParsersAction,
) -> argparse.ArgumentParser:
    """Attach the ``cache`` subcommand to the main parser."""
    parser = parent.add_parser(
        "cache",
        help="inspect and maintain the campaign observation/fit store",
        description="Maintenance of the content-addressed campaign store "
        "(docs/CACHE.md).  The directory comes from --dir or the "
        f"{CACHE_DIR_ENV} environment variable.",
    )
    sub = parser.add_subparsers(dest="cache_command", required=True)

    stats_p = sub.add_parser(
        "stats", help="entry counts, sizes and engine versions"
    )
    gc_p = sub.add_parser(
        "gc",
        help="reclaim entries from other engine versions (and, with "
        "--max-age-days, old entries)",
    )
    gc_p.add_argument(
        "--max-age-days",
        type=nonnegative_float,
        default=None,
        metavar="DAYS",
        help="also remove entries older than DAYS (default: only "
        "stale-engine and unreadable entries)",
    )
    verify_p = sub.add_parser(
        "verify",
        help="integrity-check every entry (exit 1 on corruption)",
    )
    verify_p.add_argument(
        "--delete",
        action="store_true",
        help="evict entries that fail verification",
    )
    for sub_parser in (stats_p, gc_p, verify_p):
        sub_parser.add_argument(
            "--dir",
            dest="cache_dir",
            default=None,
            metavar="DIR",
            help=f"store directory (default: ${CACHE_DIR_ENV})",
        )
    return parser


def run_cache(args: argparse.Namespace) -> int:
    """Execute one ``archline cache`` command; returns the exit code."""
    from .store import CampaignStore

    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        print(
            f"archline cache: no store directory; pass --dir or set "
            f"${CACHE_DIR_ENV}",
            file=sys.stderr,
        )
        return 2
    store = CampaignStore(cache_dir)
    if args.cache_command == "stats":
        print(store.stats().describe())
        return 0
    if args.cache_command == "gc":
        max_age = (
            None
            if args.max_age_days is None
            else args.max_age_days * 86400.0
        )
        try:
            result = store.gc(max_age_seconds=max_age)
        except ValueError as err:
            print(f"archline cache gc: {err}", file=sys.stderr)
            return 2
        print(result.describe())
        return 0
    if args.cache_command == "verify":
        problems = store.verify(delete=args.delete)
        if not problems:
            print(f"store {cache_dir}: all entries verify")
            return 0
        for problem in problems:
            print(problem, file=sys.stderr)
        action = "evicted" if args.delete else "found"
        print(
            f"store {cache_dir}: {len(problems)} corrupt entries {action}",
            file=sys.stderr,
        )
        return 1
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")

"""The campaign store's command line: its shared flags and ``archline cache``.

:func:`add_store_flags` gives ``archline campaign``, ``serve`` and
``fleet`` their one ``--cache``/``--no-cache``/``--refresh`` set and
:func:`selected_store_dir` checks it; each command prints a usage error
as ``archline <command>: <message>`` and exits 2.  ``archline cache
stats|gc|verify`` maintains the content-addressed store
(:class:`~repro.store.store.CampaignStore`; docs/CACHE.md).  Every
command takes the store directory from ``--cache`` (``--dir`` here) or
the ``ARCHLINE_CACHE`` environment variable, so one export serves all.

``archline cache`` exit codes: ``0`` success (``verify``: store
intact), ``1`` problems found (``verify`` only), ``2`` usage error (no
directory given, or the path holds no store; nothing is created).
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


def add_store_flags(parser: argparse.ArgumentParser) -> None:
    """Add ``--cache DIR``, ``--no-cache`` and ``--refresh`` to a
    subcommand that reads campaigns and fits through the store."""
    parser.add_argument(
        "--cache",
        dest="cache_dir",
        default=None,
        metavar="DIR",
        help=f"campaign store directory (default: ${CACHE_DIR_ENV} if "
        "set); cached campaigns and fits replay bit-identically from it "
        "(docs/CACHE.md)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"run uncached even when ${CACHE_DIR_ENV} is set",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="with a cache: skip lookups, recompute and republish",
    )


def selected_store_dir(
    args: argparse.Namespace, *, create: bool = True
) -> str | None:
    """The store directory the :func:`add_store_flags` flags select, or
    ``None`` to run uncached.

    Raises ``ValueError`` on ``--cache`` with ``--no-cache``, on
    ``--refresh`` without a cache, and on a path that exists but is not
    a directory.  With ``create`` the store is opened here, so a
    directory that cannot be created is a usage error too, before any
    work starts.
    """
    if args.no_cache and args.cache_dir is not None:
        raise ValueError("--cache and --no-cache are mutually exclusive")
    path = None if args.no_cache else resolve_cache_dir(args.cache_dir)
    if path is None:
        if args.refresh:
            raise ValueError(
                f"--refresh needs a cache (--cache DIR or ${CACHE_DIR_ENV})"
            )
        return None
    if os.path.exists(path) and not os.path.isdir(path):
        raise ValueError(f"store path {path} is not a directory")
    if create:
        from .store import CampaignStore

        try:
            CampaignStore(path)
        except OSError as err:
            raise ValueError(
                f"cannot create store {path}: {err.strerror}"
            ) from None
    return path


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
    # Every store has its objects directory from the moment it is
    # opened; checking for it keeps a mistyped path from becoming one.
    if not os.path.isdir(os.path.join(cache_dir, "objects")):
        print(f"archline cache: no store at {cache_dir}", file=sys.stderr)
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

"""Crash-safe file publication: write to a sibling temp, then rename.

``os.replace`` is atomic on POSIX and Windows when source and target
live on the same filesystem, so readers observe either the old complete
file or the new complete file -- never a truncated hybrid.  Writers
that crash mid-write leave (at worst) an orphaned ``*.tmp-*`` sibling;
the published path is untouched.  Concurrent writers of the same path
race benignly: each publishes a complete file and the last rename wins
(acceptable here because store entries for one key are bit-identical
by construction, and a lint summary entry is a whole snapshot of one
source file's analysis).
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text"]


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically publish ``data`` at ``path``.

    The temp file lives in the target's directory (same filesystem --
    a cross-device rename would silently fall back to copy+delete and
    lose atomicity) and is unique per process, so concurrent writers
    never clobber each other's partial output.  On any failure the temp
    is removed and the previously published file is left intact.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{id(data) & 0xFFFF:04x}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> Path:
    """Atomically publish ``text`` at ``path`` (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode(encoding))
